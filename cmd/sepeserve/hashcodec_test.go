package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// readyHandler returns the daemon's routing table over a registry
// whose "ssn" tenant has finished synthesis.
func readyHandler(tb testing.TB) http.Handler {
	tb.Helper()
	reg := newRegistry(telemetry.NewRegistry(), nil)
	reg.quick = true
	tb.Cleanup(reg.close)
	t, err := reg.register(registration{name: "ssn", regex: ssnRegex, family: core.Pext})
	if err != nil {
		tb.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, err := t.ready()
		if err == nil {
			return newServer(reg).mux()
		}
		if t.status().State == "failed" || time.Now().After(deadline) {
			tb.Fatalf("tenant not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ssnBatchBody is a 64-key batch request body as a JSON client
// encodes it.
func ssnBatchBody(tb testing.TB) []byte {
	tb.Helper()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("%03d-%02d-%04d", i*7%1000, i%100, i*131%10000)
	}
	body, err := json.Marshal(map[string][]string{"keys": keys})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveBatch runs one batch request through h and fails unless it is
// answered 200.
func serveBatch(tb testing.TB, h http.Handler, body []byte) {
	req := httptest.NewRequest("POST", "/v1/hash/ssn", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("batch: status %d: %s", rec.Code, rec.Body)
	}
}

func BenchmarkHandleHash(b *testing.B) {
	h := readyHandler(b)
	body := ssnBatchBody(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBatch(b, h, body)
	}
}

// TestHashRouteAllocs pins the allocation count of a 64-key batch
// through the routing table, httptest request and recorder included.
func TestHashRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse, so allocation counts drift")
	}
	const budget = 27
	h := readyHandler(t)
	body := ssnBatchBody(t)
	if got := testing.AllocsPerRun(200, func() { serveBatch(t, h, body) }); got > budget {
		t.Errorf("64-key batch: %.0f allocations per request, budget %d", got, budget)
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
		if _, ok := scanHashRequest([]byte(tc.body)); ok != tc.fast {
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeHashRequest(body)
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
