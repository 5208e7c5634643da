package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/sepe-go/sepe/internal/adaptive"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/telemetry"
	"github.com/sepe-go/sepe/internal/wire"
)

// HTTP surface of the daemon. All bodies are JSON except plan
// export/import, which move raw wire frames (application/octet-stream)
// so a plan file works unchanged as a cache entry, a curl download and
// an import body. Hash values are rendered as lowercase hex strings of
// minimal width (no leading zeros): JSON numbers are float64 and
// silently corrupt 64-bit values. The hash route answers compact JSON
// built by appendHashResponse; every other route pretty-prints through
// writeJSON for human readers. The hash route is the daemon's hot path:
// its body, keys, hashes and response live in a pooled hashScratch, so
// a request allocates only what outlives it (the one string(body) copy
// its keys are sliced from) and what net/http allocates per request.

const (
	// maxBatch bounds one batch-hash request; larger batches answer
	// 413 so a single tenant cannot monopolize the daemon.
	maxBatch = 4096
	// maxBody bounds JSON request bodies; larger ones answer 413 (plan
	// imports are bounded by wire.MaxEncodedSize instead).
	maxBody = 1 << 20
)

// server routes requests into the registry.
type server struct {
	reg   *registry
	tel   *telemetry.Registry
	start time.Time
}

func newServer(reg *registry) *server {
	return &server{reg: reg, tel: reg.reg, start: time.Now()}
}

// mux builds the daemon's routing table.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("POST /v1/formats", s.handleRegister)
	m.HandleFunc("GET /v1/formats", s.handleList)
	m.HandleFunc("GET /v1/formats/{name}", s.handleStatus)
	m.HandleFunc("DELETE /v1/formats/{name}", s.handleDelete)
	m.HandleFunc("GET /v1/formats/{name}/plan", s.handleExport)
	m.HandleFunc("PUT /v1/formats/{name}/plan", s.handleImport)
	m.HandleFunc("GET /v1/formats/{name}/certificate", s.handleCertificate)
	m.HandleFunc("POST /v1/hash/{name}", s.handleHash)
	m.Handle("GET /healthz", s.tel.HealthHandler())
	m.Handle("GET /livez", s.tel.HealthHandler())
	m.Handle("GET /metrics", s.tel.Handler())
	m.Handle("GET /debug/trace", s.tel.Recorder().Handler())
	return m
}

// jsonError writes a JSON problem body with the given status.
func (s *server) jsonError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if werr := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); werr != nil {
		s.recordWriteError("error-body", werr)
	}
}

// recordWriteError notes a failed response write in the flight
// recorder: the status is already committed by the time a body write
// fails (the usual cause is a client disconnect mid-response), so the
// recorder is the only place the failure can surface.
func (s *server) recordWriteError(what string, err error) {
	s.tel.Recorder().Instant("serve", "write-failed",
		telemetry.Str("what", what), telemetry.Str("error", err.Error()))
}

// statusOf maps registry errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, errUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, errTenantExists):
		return http.StatusConflict
	case errors.Is(err, errNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.recordWriteError("json-body", err)
	}
}

// registerRequest is the POST /v1/formats body.
type registerRequest struct {
	Name     string   `json:"name"`
	Regex    string   `json:"regex,omitempty"`
	Examples []string `json:"examples,omitempty"`
	Family   string   `json:"family,omitempty"`
	Keyed    bool     `json:"keyed,omitempty"`
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	body, err := readBody(w, r)
	if err == nil {
		err = decodeJSON(body, &req)
	}
	if err != nil {
		s.bodyError(w, err)
		return
	}
	fam, err := parseFamily(req.Family)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	t, err := s.reg.register(registration{
		name:     req.Name,
		regex:    req.Regex,
		examples: req.Examples,
		family:   fam,
		keyed:    req.Keyed,
	})
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	w.Header().Set("Location", "/v1/formats/"+t.name)
	s.writeJSON(w, http.StatusAccepted, t.status())
	s.tel.Recorder().Instant("serve", "serve.register",
		telemetry.Str("tenant", t.name), telemetry.Str("family", t.family.String()))
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.reg.names()
	out := make([]tenantStatus, 0, len(names))
	for _, n := range names {
		if t, err := s.reg.lookup(n); err == nil {
			out = append(out, t.status())
		}
	}
	// Deterministic order for scripts and tests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"formats": out})
}

// tenantStatus is the wire shape of GET /v1/formats/{name}: the
// tenant's lifecycle state plus the live adaptive and drift views.
type tenantStatus struct {
	Name       string                   `json:"name"`
	State      string                   `json:"state"`
	Error      string                   `json:"error,omitempty"`
	Source     string                   `json:"source"`
	Regex      string                   `json:"regex,omitempty"`
	Family     string                   `json:"family"`
	Keyed      bool                     `json:"keyed"`
	Backend    string                   `json:"backend,omitempty"`
	Generation uint64                   `json:"generation"`
	Adaptive   string                   `json:"adaptive,omitempty"`
	SwapGen    uint64                   `json:"swap_generation,omitempty"`
	Drift      *telemetry.DriftSnapshot `json:"drift,omitempty"`
	Since      time.Time                `json:"since"`
	Created    time.Time                `json:"created"`
}

// status snapshots the tenant for the API.
func (t *tenant) status() tenantStatus {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := tenantStatus{
		Name:       t.name,
		State:      t.state.String(),
		Error:      t.errMsg,
		Source:     t.source,
		Regex:      t.spec,
		Family:     t.family.String(),
		Keyed:      t.keyed,
		Generation: t.gen,
		Since:      t.since,
		Created:    t.created,
	}
	if t.fn != nil {
		st.Backend = t.fn.Backend().String()
		st.Regex = t.fn.Pattern().Regex()
	}
	if t.hash != nil {
		st.Adaptive = t.hash.State().String()
		st.SwapGen = t.hash.Generation()
		snap := t.hash.Monitor().Snapshot()
		st.Drift = &snap
	}
	return st
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.lookup(r.PathValue("name"))
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, t.status())
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.remove(r.PathValue("name")); err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ready returns the tenant's adaptive hash and latest fn, or an error
// explaining why it cannot serve.
func (t *tenant) ready() (*adaptive.Hash, *core.Fn, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	switch t.state {
	case stateReady:
		return t.hash, t.fn, nil
	case statePending:
		return nil, nil, fmt.Errorf("%w: %q is synthesizing", errNotReady, t.name)
	default:
		return nil, nil, fmt.Errorf("%w: %q failed: %s", errNotReady, t.name, t.errMsg)
	}
}

// hashRequest is the POST /v1/hash/{name} body: a single key or a
// batch, not both.
type hashRequest struct {
	Key  *string  `json:"key,omitempty"`
	Keys []string `json:"keys,omitempty"`
}

// hashScratch is the hash route's per-request working memory: the
// body, the scanned keys, the hashes and the response. It is pooled so
// a steady stream of requests allocates none of it. The keys are
// substrings of the request's own string(body) copy (or strings
// decoded from it), never of the pooled body buffer, so a key that
// outlives the request — in the drift monitor, the adaptive
// reservoir or the flight recorder — never sees a buffer reused.
type hashScratch struct {
	body   bytes.Buffer
	keys   []string
	hashes []uint64
	resp   []byte
}

var hashScratchPool = sync.Pool{New: func() any { return new(hashScratch) }}

// maxPooledBytes bounds the byte buffers of a pooled hashScratch; it
// holds a full batch of short keys and its response. A scratch that
// grew past it, or past maxBatch keys, is dropped rather than pooled so
// one near-maxBody request does not stay pinned.
const maxPooledBytes = 128 << 10

// poolable reports whether sc is small enough to return to the pool.
func (sc *hashScratch) poolable() bool {
	return sc.body.Cap() <= maxPooledBytes && cap(sc.resp) <= maxPooledBytes &&
		cap(sc.keys) <= maxBatch && cap(sc.hashes) <= maxBatch
}

// putHashScratch returns sc to the pool, or drops it if it grew too
// large. The keys are cleared first: they pin the request's body.
func putHashScratch(sc *hashScratch) {
	if !sc.poolable() {
		return
	}
	clear(sc.keys)
	sc.keys = sc.keys[:0]
	sc.body.Reset()
	hashScratchPool.Put(sc)
}

// jsonContentType is the hash route's Content-Type header value, set
// directly so a response does not canonicalize the key or allocate
// the value slice.
var jsonContentType = []string{"application/json; charset=utf-8"}

func (s *server) handleHash(w http.ResponseWriter, r *http.Request) {
	sc := hashScratchPool.Get().(*hashScratch)
	defer putHashScratch(sc)
	t, err := s.reg.lookup(r.PathValue("name"))
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	ah, _, err := t.ready()
	if err != nil {
		w.Header().Set("Retry-After", "1")
		s.jsonError(w, statusOf(err), err)
		return
	}
	err = readBodyInto(&sc.body, w, r)
	var req hashRequest
	if err == nil {
		req, err = decodeHashRequest(sc.body.Bytes(), sc.keys)
	}
	if req.Keys != nil {
		sc.keys = req.Keys // keep a grown slice for the next request
	}
	if err != nil {
		s.bodyError(w, err)
		return
	}
	switch {
	case req.Key != nil && len(req.Keys) == 0:
		sc.hashes = append(sc.hashes[:0], ah.Hash(*req.Key))
	case req.Key == nil && len(req.Keys) > 0:
		if len(req.Keys) > maxBatch {
			s.jsonError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch of %d exceeds the %d-key limit", len(req.Keys), maxBatch))
			return
		}
		sc.hashes = slices.Grow(sc.hashes[:0], len(req.Keys))[:len(req.Keys)]
		ah.HashBatch(req.Keys, sc.hashes)
	default:
		s.jsonError(w, http.StatusBadRequest,
			errors.New(`body must carry exactly one of "key" or "keys"`))
		return
	}
	// 19 bytes bound one rendered hash: 16 hex digits, quotes, comma.
	sc.resp = appendHashResponse(slices.Grow(sc.resp[:0], 64+19*len(sc.hashes)),
		sc.hashes, req.Key == nil, ah.Generation())
	w.Header()["Content-Type"] = jsonContentType
	if _, err := w.Write(sc.resp); err != nil {
		s.recordWriteError("hash-body", err)
	}
}

func (s *server) handleExport(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.lookup(r.PathValue("name"))
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	_, fn, err := t.ready()
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	frame, err := wire.Encode(fn.Plan())
	if err != nil {
		s.jsonError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", t.name+".sepeplan"))
	w.Header().Set("X-Sepe-Wire-Version", strconv.Itoa(wire.Version))
	if _, err := w.Write(frame); err != nil {
		s.recordWriteError("plan-frame", err)
	}
}

func (s *server) handleImport(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, wire.MaxEncodedSize+1))
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > wire.MaxEncodedSize {
		s.jsonError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("plan frame exceeds %d bytes", wire.MaxEncodedSize))
		return
	}
	d, err := wire.Decode(body)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, fmt.Errorf("plan rejected: %w", err))
		return
	}
	t, err := s.reg.adopt(r.PathValue("name"), d, "import")
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	if s.reg.cache != nil {
		// Persist the imported frame verbatim so a restart replays it.
		if err := s.reg.cache.Save(t.name, body); err != nil {
			s.tel.Recorder().Instant("cache", "persist-failed",
				telemetry.Str("tenant", t.name), telemetry.Str("error", err.Error()))
		}
	}
	s.writeJSON(w, http.StatusCreated, t.status())
}

func (s *server) handleCertificate(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.lookup(r.PathValue("name"))
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	_, fn, err := t.ready()
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	cert := core.Certify(fn.Plan())
	s.writeJSON(w, http.StatusOK, map[string]any{
		"certificate": cert,
		"digest":      strconv.FormatUint(core.CertDigest(fn.Plan()), 16),
	})
}

// readBody reads the whole request body, capped at maxBody; a longer
// body fails with *http.MaxBytesError, which bodyError answers 413.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	err := readBodyInto(&buf, w, r)
	return buf.Bytes(), err
}

// readBodyInto is readBody appending to buf, so a reused buffer with
// room for the body makes the read allocation-free.
func readBodyInto(buf *bytes.Buffer, w http.ResponseWriter, r *http.Request) error {
	// Room for the declared length plus ReadFrom's read-ahead makes the
	// read at most one allocation.
	buf.Grow(int(min(max(r.ContentLength, 0), maxBody)) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	return err
}

// decodeJSON decodes one JSON value from body into v, rejecting any
// non-whitespace byte after it.
func decodeJSON(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// bodyError answers a request whose body could not be read or
// decoded: 413 when it exceeded maxBody, 400 otherwise.
func (s *server) bodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.jsonError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	s.jsonError(w, http.StatusBadRequest, err)
}
