package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
)

// serve-batch: the benchmark starts cmd/sepeserve on loopback,
// registers two unkeyed tenants, and runs serveClients closed-loop
// clients, each on its own keep-alive connection, that alternate
// POST /v1/hash/{tenant} with serveBatch-key JSON batches. Every
// served hash is checked against the tenant's exported plan, imported
// and run in this process, and the generation must not change.

const (
	serveBatch   = 64
	serveBatches = 512 // distinct pre-encoded batches per tenant
	serveClients = 2
	singleProbes = 301
	startTimeout = 60 * time.Second
)

type serveTenant struct {
	name   string
	typ    keys.Type
	family string

	hash    *sepe.Hash // imported from the daemon's exported plan
	gen     uint64     // generation the tenant must keep serving
	bodies  [][]byte   // pre-encoded batch requests
	batches [][]string
	want    [][]uint64
}

func serveTenants() []*serveTenant {
	return []*serveTenant{
		{name: "ssn", typ: keys.SSN, family: "pext"},
		{name: "url2", typ: keys.URL2, family: "aes"},
	}
}

// daemon is one running sepeserve process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed when the daemon's stderr reaches EOF
}

// startDaemon starts bin on an ephemeral loopback port and returns once
// it has announced its address.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no sepeserve binary (-serve-bin)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- a
				break
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // the log is not needed, only drained
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.drained:
		err = errors.New("sepeserve exited before listening")
	case <-time.After(startTimeout):
		err = errors.New("sepeserve did not announce its address")
	}
	d.stop()
	return nil, err
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already exited daemon is fine
	select {
	case <-d.drained:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait() // the exit status of a terminated daemon carries nothing
}

type tenantStatus struct {
	State      string `json:"state"`
	Error      string `json:"error"`
	Backend    string `json:"backend"`
	Generation uint64 `json:"swap_generation"`
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// setupServe is the timed set-up: start the daemon, register every
// tenant, and wait until each reports ready. It returns the daemon and
// each tenant's register-to-ready time in ms.
func setupServe(bin string, c *http.Client, ts []*serveTenant) (*daemon, []float64, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, nil, err
	}
	regMs := make([]float64, len(ts))
	for i, t := range ts {
		t0 := time.Now()
		body, _ := json.Marshal(map[string]string{"name": t.name, "regex": t.typ.Regex(), "family": t.family})
		resp, err := c.Post(d.base+"/v1/formats", "application/json", bytes.NewReader(body))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				err = fmt.Errorf("register %s: %s", t.name, resp.Status)
			}
		}
		for err == nil {
			var st tenantStatus
			if err = getJSON(c, d.base+"/v1/formats/"+t.name, &st); err != nil {
				break
			}
			if st.State == "ready" {
				break
			}
			if st.State != "pending" {
				err = fmt.Errorf("tenant %s: %s %s", t.name, st.State, st.Error)
			} else if time.Since(t0) > startTimeout {
				err = fmt.Errorf("tenant %s not ready after %v", t.name, startTimeout)
			}
			time.Sleep(200 * time.Microsecond)
		}
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		regMs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return d, regMs, nil
}

// prepare imports each tenant's exported plan and pre-encodes the
// batches with their expected hashes.
func prepare(d *daemon, c *http.Client, ts []*serveTenant, seed uint64, backends map[string]string) error {
	for _, t := range ts {
		resp, err := c.Get(d.base + "/v1/formats/" + t.name + "/plan")
		if err != nil {
			return err
		}
		frame, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("export %s: %s", t.name, resp.Status)
		}
		if t.hash, err = sepe.ImportPlan(frame); err != nil {
			return fmt.Errorf("import %s: %w", t.name, err)
		}
		var st tenantStatus
		if err := getJSON(c, d.base+"/v1/formats/"+t.name, &st); err != nil {
			return err
		}
		t.gen = st.Generation
		backends["tenant."+t.name] = st.Backend
		backends["imported."+t.name] = t.hash.Backend().String()

		pool := keys.NewGenerator(t.typ, keys.Uniform, seed).Distinct(serveBatches * serveBatch)
		for b := 0; b < serveBatches; b++ {
			batch := pool[b*serveBatch : (b+1)*serveBatch]
			body, err := json.Marshal(map[string][]string{"keys": batch})
			if err != nil {
				return err
			}
			want := make([]uint64, serveBatch)
			t.hash.HashBatch(batch, want)
			t.bodies = append(t.bodies, body)
			t.batches = append(t.batches, batch)
			t.want = append(t.want, want)
		}
	}
	return nil
}

// client is one closed-loop caller with its own connection.
type client struct {
	c                 *http.Client
	r                 *rng
	lat               []float64
	attempted, failed int64
	// batch requests sent and their request and response body bytes
	batches, reqBytes, respBytes int64
	buf                          bytes.Buffer

	wrote, first time.Time
	trace        *httptrace.ClientTrace
}

func newClient(seed uint64) *client {
	cl := &client{
		c: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		},
		r: newRNG(seed),
	}
	cl.trace = &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { cl.wrote = time.Now() },
		GotFirstResponseByte: func() { cl.first = time.Now() },
	}
	return cl
}

type batchResponse struct {
	Hashes     []string `json:"hashes"`
	Hash       string   `json:"hash"`
	Generation uint64   `json:"generation"`
}

// verify counts the wrong hashes of one response (all of them when the
// status or shape is wrong).
func verify(status int, body []byte, want []uint64, gen uint64, single bool) int64 {
	var r batchResponse
	if status != http.StatusOK || json.Unmarshal(body, &r) != nil || r.Generation != gen {
		return int64(len(want))
	}
	if single {
		r.Hashes = []string{r.Hash}
	}
	if len(r.Hashes) != len(want) {
		return int64(len(want))
	}
	var bad int64
	for i, h := range r.Hashes {
		if v, err := strconv.ParseUint(h, 16, 64); err != nil || v != want[i] {
			bad++
		}
	}
	return bad
}

// do sends one request and checks it; with a tracer it records the
// request as a unit span with write/server/read children and the check
// as bench.
func (cl *client) do(url string, body []byte, want []uint64, gen uint64, single bool, tr *tracer) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is built by the benchmark
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(context.Background(), cl.trace))
		tr.beginUnit()
	}
	t0 := time.Now()
	resp, err := cl.c.Do(req)
	status := 0
	cl.buf.Reset()
	if err == nil {
		status = resp.StatusCode
		if _, err = cl.buf.ReadFrom(resp.Body); err != nil {
			status = 0
		}
		resp.Body.Close()
	}
	t1 := time.Now()
	if tr != nil && status != 0 {
		tr.record(layerServeWrite, t0, cl.wrote)
		tr.record(layerServeServer, cl.wrote, cl.first)
		tr.record(layerServeRead, cl.first, t1)
	}
	if tr != nil {
		tr.begin(layerBench)
	}
	cl.failed += verify(status, cl.buf.Bytes(), want, gen, single)
	if tr != nil {
		tr.end()
		tr.end()
	}
	cl.attempted += int64(len(want))
	if !single {
		cl.batches++
		cl.reqBytes += int64(len(body))
		cl.respBytes += int64(cl.buf.Len())
	}
	cl.lat = append(cl.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
}

// runClients runs every client until the deadline, alternating
// tenants, and returns the phase with the daemon's CPU time.
func runClients(d *daemon, cls []*client, ts []*serveTenant, seconds float64, trs []*tracer) (phaseResult, error) {
	var p phaseResult
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return p, err
	}
	start := time.Now()
	end := deadline(seconds)
	var wg sync.WaitGroup
	for i, cl := range cls {
		var tr *tracer
		if trs != nil {
			tr = trs[i]
		}
		cl.lat = cl.lat[:0]
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for n := i; time.Now().Before(end); n++ {
				t := ts[n%len(ts)]
				b := cl.r.below(serveBatches)
				cl.do(d.base+"/v1/hash/"+t.name, t.bodies[b], t.want[b], t.gen, false, tr)
			}
		}(i, cl)
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return p, err
	}
	p.cpu = cpu1 - cpu0
	for _, cl := range cls {
		p.units += int64(len(cl.lat))
		p.ops += int64(len(cl.lat)) * serveBatch
		p.lat = append(p.lat, cl.lat...)
	}
	return p, nil
}

func runServe(cfg config) (*outcome, error) {
	// The daemon and both clients share one CPU, so a request hands off
	// by a same-core switch. Spread over the host's two vCPUs, each
	// hand-off waited for the host to wake an idle vCPU, and keys_per_s
	// varied by 39% between runs (quartile distance over median, 10
	// runs) against 10% pinned, measured side by side.
	if _, err := pinToOneCPU(); err != nil {
		return nil, err
	}
	ts := serveTenants()
	ctl := &http.Client{Timeout: 30 * time.Second}
	out := &outcome{layers: metrics{}, backends: map[string]string{}}
	var d *daemon
	var regMs []float64
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		ctl.CloseIdleConnections()
		t0 := time.Now()
		var ms []float64
		var err error
		if d, ms, err = setupServe(cfg.serveBin, ctl, ts); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		regMs = append(regMs, mean(ms))
	}
	defer d.stop()
	if err := prepare(d, ctl, ts, cfg.seed, out.backends); err != nil {
		return nil, err
	}
	cls := make([]*client, serveClients)
	for i := range cls {
		cls[i] = newClient(cfg.seed ^ uint64(i+1)<<48)
	}
	defer func() {
		for _, cl := range cls {
			cl.c.CloseIdleConnections()
		}
	}()

	if !cfg.trace {
		p, err := runClients(d, cls, ts, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		out.ops, out.wall, out.lat, out.cpu = p.ops, p.wall, p.lat, p.cpu
	} else {
		m := out.layers
		if _, err := probeLayers(m, cfg.seed); err != nil {
			return nil, err
		}
		m.set("serve.register_ms", "ms", median(regMs))
		m.set("serve.single_us", "us", singleKeyProbe(d, cls[0], ts))

		epoch := time.Now()
		trs := make([]*tracer, serveClients)
		for i := range trs {
			trs[i] = newTracer(epoch, i)
		}
		var runErr error
		un, tp := interleave(cfg.seconds, func(seconds float64, traced bool) phaseResult {
			var p phaseResult
			if runErr == nil {
				if traced {
					p, runErr = runClients(d, cls, ts, seconds, trs)
				} else {
					p, runErr = runClients(d, cls, ts, seconds, nil)
				}
			}
			if runErr != nil {
				p.wall = seconds // end the run
			}
			return p
		})
		if runErr != nil {
			return nil, runErr
		}
		out.ops, out.wall, out.lat, out.cpu = un.ops, un.wall, un.lat, un.cpu
		reqs := float64(tp.units)
		perClient := func(p phaseResult) float64 { return p.wall * 1e9 * serveClients / float64(p.units) }
		l := mergeTracers(trs)
		l.account(m, reqs, perClient(un), perClient(tp))
		if err := l.write(cfg.outDir, fmt.Sprintf("serve-batch-seed%d", cfg.seed)); err != nil {
			return nil, err
		}
		server := l.self[layerServeServer] / reqs / 1e3
		m.set("serve.write_us", "us", l.self[layerServeWrite]/reqs/1e3)
		m.set("serve.server_us", "us", server)
		m.set("serve.read_us", "us", l.self[layerServeRead]/reqs/1e3)
		var reqBytes, respBytes, batches int64
		for _, cl := range cls {
			reqBytes += cl.reqBytes
			respBytes += cl.respBytes
			batches += cl.batches
		}
		m.set("serve.req_bytes", "count", float64(reqBytes)/float64(batches))
		m.set("serve.resp_bytes", "count", float64(respBytes)/float64(batches))
		m.set("serve.hash_share_pct", "%", batchHashUs(ts)/server*100)
		swaps := 0.0
		for _, t := range ts {
			var st tenantStatus
			if err := getJSON(ctl, d.base+"/v1/formats/"+t.name, &st); err != nil {
				return nil, err
			}
			swaps += float64(st.Generation - t.gen)
		}
		m.set("adaptive.swaps", "count", swaps)
		out.bypass = []string{"container.", "runtime.", "shard.", "adaptive.tick_ns"}
	}
	for _, cl := range cls {
		out.attempted += cl.attempted
		out.failed += cl.failed
	}
	var err error
	if out.memMiB, err = procHWM(d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	return out, nil
}

// singleKeyProbe is the median latency in µs of single-key requests,
// alternating tenants on one client.
func singleKeyProbe(d *daemon, cl *client, ts []*serveTenant) float64 {
	for i := 0; i < singleProbes; i++ {
		t := ts[i%len(ts)]
		b, j := cl.r.below(serveBatches), cl.r.below(serveBatch)
		body, _ := json.Marshal(map[string]string{"key": t.batches[b][j]})
		cl.do(d.base+"/v1/hash/"+t.name, body, t.want[b][j:j+1], t.gen, true, nil)
	}
	return median(cl.lat)
}

// batchHashUs is the median time in µs of one in-process HashBatch of
// a served batch, over every pre-encoded batch of every tenant.
func batchHashUs(ts []*serveTenant) float64 {
	out := make([]uint64, serveBatch)
	var xs []float64
	for _, t := range ts {
		for _, b := range t.batches {
			t0 := time.Now()
			t.hash.HashBatch(b, out)
			xs = append(xs, usSince(t0))
		}
	}
	return median(xs)
}
