package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sepe-go/sepe/internal/adaptive"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// readyHandler returns the daemon's routing table over a registry
// whose "ssn" tenant has finished synthesis.
func readyHandler(tb testing.TB) http.Handler {
	tb.Helper()
	reg := quickRegistry(tb)
	readyHash(tb, reg, registration{name: "ssn", regex: ssnRegex, family: core.Pext})
	return newServer(reg).mux()
}

// quickRegistry returns an empty registry that synthesizes in quick
// mode and is closed when the test ends.
func quickRegistry(tb testing.TB) *registry {
	reg := newRegistry(telemetry.NewRegistry(), nil)
	reg.quick = true
	tb.Cleanup(reg.close)
	return reg
}

// readyHash registers rg and waits for its tenant's adaptive hash.
func readyHash(tb testing.TB, reg *registry, rg registration) *adaptive.Hash {
	tb.Helper()
	t, err := reg.register(rg)
	if err != nil {
		tb.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ah, _, err := t.ready()
		if err == nil {
			return ah
		}
		if t.status().State == "failed" || time.Now().After(deadline) {
			tb.Fatalf("tenant %q not ready: %v", rg.name, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ssnBatchBody is an n-key batch request body as a JSON client
// encodes it.
func ssnBatchBody(tb testing.TB, n int) []byte {
	tb.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%03d-%02d-%04d", i*7%1000, i%100, i*131%10000)
	}
	body, err := json.Marshal(map[string][]string{"keys": keys})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveHash runs one request to the "ssn" hash route through h and
// fails unless it is answered 200.
func serveHash(tb testing.TB, h http.Handler, body []byte) {
	req := httptest.NewRequest("POST", "/v1/hash/ssn", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("hash %.40q: status %d: %s", body, rec.Code, rec.Body)
	}
}

func BenchmarkHandleHash(b *testing.B) {
	h := readyHandler(b)
	body := ssnBatchBody(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHash(b, h, body)
	}
}

// TestHashRouteAllocs pins the allocation counts of a 64-key batch and
// of a single key through the routing table, httptest request and
// recorder included.
func TestHashRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse, so allocation counts drift")
	}
	h := readyHandler(t)
	for _, tc := range []struct {
		name   string
		body   []byte
		budget float64
	}{
		{"64-key batch", ssnBatchBody(t, 64), 22},
		{"single key", []byte(`{"key":"123-45-6789"}`), 23},
	} {
		if got := testing.AllocsPerRun(200, func() { serveHash(t, h, tc.body) }); got > tc.budget {
			t.Errorf("%s: %.0f allocations per request, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// TestHashRouteConcurrent drives the pooled hash route from 8
// goroutines with SSN and URL2 batches, single keys, a body only
// decodeJSON takes and oversized bodies. Every 200 answer must be the
// in-process hash of its own keys, so a scratch buffer shared between
// two live requests shows up as a wrong hash (and as a race under
// -race).
func TestHashRouteConcurrent(t *testing.T) {
	reg := quickRegistry(t)
	tenants := []struct {
		name string
		ah   *adaptive.Hash
	}{
		{"ssn", readyHash(t, reg, registration{name: "ssn", regex: ssnRegex, family: core.Pext})},
		{"url2", readyHash(t, reg, registration{name: "url2", regex: keys.URL2.Regex(), family: core.Aes})},
	}
	h := newServer(reg).mux()
	oversized := []byte(`{"keys":["` + strings.Repeat("a", maxBody) + `"]}`)

	const workers, requests = 8, 200
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens := []*keys.Generator{
				keys.NewGenerator(keys.SSN, keys.Uniform, uint64(w)),
				keys.NewGenerator(keys.URL2, keys.Uniform, uint64(w)),
			}
			for i := range requests {
				tn := tenants[i%2]
				ks := gens[i%2].Distinct(1 + (i*7+w)%64)
				var body []byte
				switch {
				case i%50 == 49:
					body = oversized
				case i%5 == 0:
					ks = ks[:1]
					body, _ = json.Marshal(map[string]string{"key": ks[0]})
				case i%5 == 1:
					body, _ = json.Marshal(map[string][]string{"Keys": ks}) // decodeJSON's case folding
				default:
					body, _ = json.Marshal(map[string][]string{"keys": ks})
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/hash/"+tn.name, bytes.NewReader(body)))
				if i%50 == 49 {
					if rec.Code != http.StatusRequestEntityTooLarge {
						t.Errorf("oversized body: status %d, want 413", rec.Code)
						return
					}
					continue
				}
				var got struct {
					Hash   string   `json:"hash"`
					Hashes []string `json:"hashes"`
				}
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
					t.Errorf("%s %.60q: status %d: %s", tn.name, body, rec.Code, rec.Body)
					return
				}
				if i%5 == 0 {
					got.Hashes = []string{got.Hash}
				}
				want := make([]uint64, len(ks))
				tn.ah.HashBatch(ks, want)
				if len(got.Hashes) != len(want) {
					t.Errorf("%s: %d hashes for %d keys", tn.name, len(got.Hashes), len(want))
					return
				}
				for j, k := range ks {
					if g := got.Hashes[j]; g != strconv.FormatUint(want[j], 16) {
						t.Errorf("%s: key %q hashed to %s, want %x", tn.name, k, g, want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestHashScratchPooling checks the return-to-pool helper: a scratch
// within the bounds is pooled with its keys cleared, one that served a
// full batch of short keys stays within them, and one that grew past
// any bound is dropped untouched.
func TestHashScratchPooling(t *testing.T) {
	sc := new(hashScratch)
	sc.keys = append(sc.keys, "a", "b")
	if !sc.poolable() {
		t.Fatal("small scratch not poolable")
	}
	held := sc.keys
	putHashScratch(sc)
	if len(sc.keys) != 0 || held[0] != "" || held[1] != "" {
		t.Errorf("pooled scratch kept its keys: %q", held)
	}

	// Read, scan and answer a maxBatch-key request the way handleHash
	// does, with every hash at full width.
	sc = new(hashScratch)
	r := httptest.NewRequest("POST", "/v1/hash/ssn", bytes.NewReader(ssnBatchBody(t, maxBatch)))
	if err := readBodyInto(&sc.body, httptest.NewRecorder(), r); err != nil {
		t.Fatal(err)
	}
	req, err := decodeHashRequest(sc.body.Bytes(), sc.keys)
	if err != nil || len(req.Keys) != maxBatch {
		t.Fatalf("full batch decoded to %d keys, err %v", len(req.Keys), err)
	}
	sc.keys = req.Keys
	sc.hashes = slices.Grow(sc.hashes[:0], maxBatch)[:maxBatch]
	for i := range sc.hashes {
		sc.hashes[i] = ^uint64(0)
	}
	sc.resp = appendHashResponse(slices.Grow(sc.resp[:0], 64+19*maxBatch), sc.hashes, true, 1)
	if !sc.poolable() {
		t.Errorf("full-batch scratch not poolable: body cap %d, keys cap %d, hashes cap %d, resp cap %d",
			sc.body.Cap(), cap(sc.keys), cap(sc.hashes), cap(sc.resp))
	}
	for name, grow := range map[string]func(*hashScratch){
		"body":   func(sc *hashScratch) { sc.body.Grow(maxPooledBytes + 1) },
		"resp":   func(sc *hashScratch) { sc.resp = make([]byte, 0, maxPooledBytes+1) },
		"keys":   func(sc *hashScratch) { sc.keys = make([]string, 1, maxBatch+1) },
		"hashes": func(sc *hashScratch) { sc.hashes = make([]uint64, 0, maxBatch+1) },
	} {
		sc := new(hashScratch)
		grow(sc)
		if sc.poolable() {
			t.Errorf("scratch with oversized %s is poolable", name)
		}
		if sc.keys != nil {
			sc.keys[0] = "k"
		}
		putHashScratch(sc)
		if sc.keys != nil && sc.keys[0] != "k" {
			t.Errorf("dropped scratch (oversized %s) was reset for the pool", name)
		}
	}
}

// TestScanHashRequestShapes checks which bodies the scanner takes
// itself; everything it declines reaches decodeJSON.
func TestScanHashRequestShapes(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"key":"123-45-6789"}`, true},
		{" \t\r\n{ \"key\" : \"a\" } \n", true},
		{`{"keys":["a","b",""]}`, true},
		{`{"keys":[]}`, true},
		{`{"key":"a&b"}`, true},
		{`{"keys":["café","naïve"]}`, true},
		{`{"KEY":"a"}`, false},
		{`{"key":"a","key":"b"}`, false},
		{`{"key":null}`, false},
		{`{"key":1}`, false},
		{`{"keys":["a",]}`, false},
		{`{"key":"a"}}`, false},
		{`{"key":"a"} ]`, false},
		{"{\"key\":\"a\x01\"}", false},
	} {
		if _, ok := scanHashRequest([]byte(tc.body), nil); ok != tc.fast {
			t.Errorf("scanHashRequest(%q) took it = %v, want %v", tc.body, ok, tc.fast)
		}
	}
}

// TestAppendHashResponse pins the compact response bodies: field
// names, minimal-width hex and the trailing newline.
func TestAppendHashResponse(t *testing.T) {
	for _, tc := range []struct {
		hs    []uint64
		batch bool
		want  string
	}{
		{[]uint64{0x40e201b9}, false, `{"hash":"40e201b9","generation":3}` + "\n"},
		{[]uint64{0, ^uint64(0)}, true, `{"hashes":["0","ffffffffffffffff"],"generation":3}` + "\n"},
	} {
		if got := appendHashResponse(nil, tc.hs, tc.batch, 3); string(got) != tc.want {
			t.Errorf("appendHashResponse(%x, %v) = %q, want %q", tc.hs, tc.batch, got, tc.want)
		}
	}
}

// TestAppendHex holds the pair-table hex appender to strconv at every
// digit-count boundary.
func TestAppendHex(t *testing.T) {
	vals := []uint64{0, ^uint64(0), 0x0123456789abcdef, 0xfedcba9876543210}
	for i := 0; i < 64; i++ {
		vals = append(vals, 1<<i, 1<<i-1, 1<<i+1)
	}
	for _, v := range vals {
		if got, want := appendHex([]byte("x"), v), strconv.AppendUint([]byte("x"), v, 16); !bytes.Equal(got, want) {
			t.Errorf("appendHex(%#x) = %q, want %q", v, got, want)
		}
	}
}

// TestPlainSpan holds the word-at-a-time span check to the byte rule
// it replaces. Every byte value sits at every offset of spans 1–24
// bytes long, so the 8-byte word loop and the tail both see it, over
// fills at the edges of the accepted range.
func TestPlainSpan(t *testing.T) {
	plain := func(b []byte) bool {
		for _, c := range b {
			if c < 0x20 || c >= 0x80 || c == '\\' {
				return false
			}
		}
		return true
	}
	for _, fill := range []byte{' ', 'a', '[', ']', '~', 0x7f} {
		for n := 1; n <= 24; n++ {
			span := bytes.Repeat([]byte{fill}, n)
			if !plainSpan(span) {
				t.Fatalf("plainSpan(%q) = false, want true", span)
			}
			for off := range n {
				for v := range 256 {
					span[off] = byte(v)
					if got, want := plainSpan(span), plain(span); got != want {
						t.Fatalf("plainSpan(%q) = %v, want %v", span, got, want)
					}
				}
				span[off] = fill
			}
		}
	}
}

// FuzzHashRequest holds the hash route's decoder to decodeJSON: both
// accept or both reject, and accepted bodies yield the same Key/Keys.
func FuzzHashRequest(f *testing.F) {
	for _, seed := range []string{
		`{"key":"123-45-6789"}`,
		`{"keys":["123-45-6789","987-65-4321"]}`,
		`{"keys":[]}`,
		`{"key":"a\"b\\c\/d\n"}`,
		`{"key":"https://x.example/?a=1&b=2"}`,
		`{"keys":["😀","\ud83d","\udc00x"]}`,
		"{\"key\":\"\xff\xfe\"}",
		"{\"keys\":[\"caf\xc3\xa9\",\"\xc3\"]}",
		`{"KEY":"a"}`,
		`{"Keys":["a"]}`,
		`{"key":"a"}`,
		`{"key":"a","key":"b"}`,
		`{"keys":["a"],"keys":["b"]}`,
		`{"key":"a","keys":["b"]}`,
		`{"key":null}`,
		`{"keys":null}`,
		`null`,
		`{"key":"a","x":{"y":[1,{"z":null}]}}`,
		`{"key":"a"}}`,
		`{"key":"a"} ]`,
		`{"key":"a"} {"key":"b"}`,
		`{"key":"a"}` + " \n\t\r",
		`{"keys":["a",]}`,
		`{"key":"a\u0000"}`,
		"{\"key\":\"a\tb\"}",
		`{"key":"a`,
		``,
		// Edges of the word-at-a-time scan: an escaped quote after
		// exactly 7 and 8 plain bytes, bytes the word check must catch
		// on an 8-byte boundary, keys of exactly one and two words,
		// and an unterminated token.
		`{"key":"abcdefg\"h"}`,
		`{"key":"abcdefgh\"i"}`,
		"{\"key\":\"abcdefgh\x1fij\"}",
		"{\"key\":\"abcdefgh\x7fij\"}",
		"{\"key\":\"abcdefgh\x80ij\"}",
		`{"keys":["abcdefgh","0123456789abcdef"]}`,
		`{"keys":["abcdefgh","0123456789abcdef`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeHashRequest(body, nil)
		var want hashRequest
		wantErr := decodeJSON(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decodeHashRequest err = %v, decodeJSON err = %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeHashRequest = %s, decodeJSON = %s", body, show(got), show(want))
		}
	})
}

// show renders a decoded request for a failure message.
func show(r hashRequest) string {
	var b strings.Builder
	if r.Key != nil {
		fmt.Fprintf(&b, "key=%q ", *r.Key)
	}
	if r.Keys != nil {
		fmt.Fprintf(&b, "keys=%q", r.Keys)
	}
	return b.String()
}
