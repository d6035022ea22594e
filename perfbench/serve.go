package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kb"
	"repro/internal/model"
	"repro/internal/pythia"
	"repro/internal/relation"
	"repro/internal/serve"
)

// serveMixed drives pythia-serve's handler on a loopback listener. Set-up
// boots the server and uploads every tenant; one cold generate per tenant
// follows each of the last set-ups. On the last server, closed-loop
// clients then send template generates round-robin over the tenants;
// every appendEvery-th request is instead a one-row append, until a fixed
// number of appends has run, so writes run beside reads and the tables
// grow by a bounded amount. The tenants' a-queries fit in the engine's
// plan cache together.
func serveMixed(cfg config) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	tables, err := makeTables(schemas, cfg.sizes.tenants, rng)
	if err != nil {
		return nil, err
	}
	tenants := make([]*tenant, len(tables))
	for k, t := range tables {
		tenants[k] = &tenant{table: t, digests: map[int]string{}}
	}
	for a := 0; a < cfg.sizes.appends; a++ {
		tn := tenants[a%len(tenants)]
		d, err := tn.table.delta(len(tn.deltas), rng)
		if err != nil {
			return nil, err
		}
		tn.deltas = append(tn.deltas, d)
	}

	r := newResult()
	var srv *server
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	// Every set-up boots a fresh server. The first generate of each tenant
	// on the last coldPhases servers is cold; the last server goes on into
	// the closed loop.
	var c0 *client
	for i := 0; i < cfg.sizes.serveSetups; i++ {
		if srv != nil {
			srv.close()
			runtime.GC() // every server starts from a collected heap, like a fresh process
		}
		start := time.Now()
		if srv, err = startServer(tables); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		phase := i - (cfg.sizes.serveSetups - cfg.sizes.coldPhases)
		if phase < 0 {
			continue
		}
		if i == cfg.sizes.serveSetups-1 {
			r.begin(cfg)
		}
		c0 = newClient(srv, r.tr)
		for _, tn := range tenants {
			r.attempted++
			d, n, err := c0.generate(tn, -1)
			if err == nil && phase == 0 {
				err = tn.checkFirst(c0.body.Bytes(), n)
			}
			if err != nil {
				r.fail(err)
				continue
			}
			r.cold.add(tn.table.name, d)
		}
	}
	r.nops += len(tenants)
	clients := []*client{c0}
	for len(clients) < serveClients {
		clients = append(clients, newClient(srv, r.tr))
	}
	// The closed loop. Requests are numbered to pick appends; generates are
	// numbered on their own to go round-robin over the tenants, and a trace
	// run traces every other round.
	var next, appends, gens atomic.Int64
	loopStart := time.Now()
	deadline := loopStart.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := int(next.Add(1) - 1)
				if q%cfg.sizes.appendEvery == cfg.sizes.appendEvery-1 {
					if a := int(appends.Add(1) - 1); a < cfg.sizes.appends {
						c.timedAppend(tenants[a%len(tenants)])
						continue
					}
				}
				g := int(gens.Add(1) - 1)
				c.timedGenerate(tenants[g%len(tenants)], g, cfg.trace && (g/len(tenants))%2 == 0)
			}
		}(c)
	}
	wg.Wait()
	loop := time.Since(loopStart)
	r.end()
	for _, c := range clients {
		r.attempted += c.attempted
		r.nops += c.attempted
		r.ntraced += c.ntraced
		r.ops.merge(c.gens)
		r.traced.merge(c.traced)
		r.writes.merge(c.appends)
		r.examples += c.examples
		for _, err := range c.errs {
			r.fail(err)
		}
	}
	r.busy = loop

	// Untimed: finish the appends the loop did not reach, so every run of a
	// seed ends in the same tables, then compare each tenant's final output
	// with the CLI pipeline run on the same rows.
	for a := int(appends.Load()); a < cfg.sizes.appends; a++ {
		r.attempted++
		if _, err := c0.appendRows(tenants[a%len(tenants)]); err != nil {
			r.fail(err)
		}
	}
	pred := model.NewULabel(kb.BuildDefault())
	for _, tn := range tenants {
		r.attempted++
		_, n, err := c0.generate(tn, -1)
		if err == nil {
			err = tn.checkFinal(c0.body.Bytes(), n, pred)
		}
		if err != nil {
			r.fail(err)
		}
	}
	for _, tn := range tenants {
		r.out.add("cold/"+tn.table.name, tn.coldN, tn.digests[0])
	}
	for _, tn := range tenants {
		r.out.add("final/"+tn.table.name, tn.finalN, tn.digests[tn.applied])
	}
	return r, matchReference(cfg.ref, &r.out)
}

// tenant is the client's view of one uploaded table.
type tenant struct {
	table  *table
	deltas [][]byte // the rows to append, in order

	// rw orders appends against generates of this tenant, so every
	// generate response belongs to a known number of appended rows.
	rw      sync.RWMutex
	applied int // appends the server has acknowledged

	mu      sync.Mutex
	digests map[int]string // applied → digest of the generate output
	coldN   int
	finalN  int
}

// record checks a generate response against earlier responses for the
// same rows: all must be byte-identical.
func (tn *tenant) record(applied, n int, sum string) error {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if prev, ok := tn.digests[applied]; ok {
		if prev != sum {
			return fmt.Errorf("%s after %d appends: output sha256 %s differs from an earlier response's %s",
				tn.table.name, applied, sum, prev)
		}
		return nil
	}
	tn.digests[applied] = sum
	return nil
}

// checkFirst fully checks the cold response.
func (tn *tenant) checkFirst(doc []byte, n int) error {
	full, _, err := checkNDJSON(bytes.NewReader(doc), tn.table.name)
	if err == nil && full != n {
		err = fmt.Errorf("%s: %d examples parsed, %d lines", tn.table.name, full, n)
	}
	tn.coldN = n
	return err
}

// checkFinal fully checks the response after every append, and compares
// it with the CLI pipeline (ReadCSV, Discover, templates GenerateStream,
// NDJSON) over the uploaded rows plus every appended row.
func (tn *tenant) checkFinal(doc []byte, n int, pred model.Predictor) error {
	if tn.applied != len(tn.deltas) {
		return fmt.Errorf("%s: %d of %d appends applied", tn.table.name, tn.applied, len(tn.deltas))
	}
	if _, _, err := checkNDJSON(bytes.NewReader(doc), tn.table.name); err != nil {
		return err
	}
	tn.finalN = n
	csv := append([]byte(nil), tn.table.csv...)
	for _, d := range tn.deltas {
		csv = append(csv, d[bytes.IndexByte(d, '\n')+1:]...) // drop the header
	}
	t, err := relation.ReadCSV(tn.table.name, bytes.NewReader(csv))
	if err != nil {
		return err
	}
	md, err := pythia.Discover(t, pred)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	opts := pythia.Options{Mode: pythia.Templates, Seed: 1, Workers: runtime.NumCPU()}
	if err := pythia.NewGenerator(t, md).GenerateStream(opts, pythia.SinkFunc(func(ex pythia.Example) error {
		return enc.Encode(ex)
	})); err != nil {
		return err
	}
	if !bytes.Equal(doc, want.Bytes()) {
		return fmt.Errorf("%s: served output (%d bytes) differs from the CLI pipeline's (%d bytes) on the same rows",
			tn.table.name, len(doc), want.Len())
	}
	return nil
}

// server is a pythia-serve handler on a loopback listener.
type server struct {
	http *http.Server
	base string
	hc   *http.Client
	done chan error
}

// startServer boots a server and uploads every table.
func startServer(tables []*table) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		http: &http.Server{Handler: serve.NewServer(serve.Config{}).Handler()},
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	for _, t := range tables {
		status, body, err := s.post("/tables?name="+url.QueryEscape(t.name), "text/csv", t.csv, nil)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("upload %s: status %d: %s", t.name, status, body)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// post sends one request and reads the whole response into into (or a
// fresh buffer when into is nil).
func (s *server) post(path, contentType string, body []byte, into *bytes.Buffer) (int, []byte, error) {
	resp, err := s.hc.Post(s.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if into == nil {
		into = new(bytes.Buffer)
	}
	into.Reset()
	if _, err := into.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, into.Bytes(), nil
}

// close shuts the server down and waits for it to stop.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: server:", err)
	}
	s.hc.CloseIdleConnections()
}

// client is one closed-loop client. Only its own goroutine touches it
// until the loop ends.
type client struct {
	srv  *server
	tr   *tracer
	body bytes.Buffer

	attempted int
	gens      samples // untraced warm generates
	traced    samples // traced warm generates
	ntraced   int
	appends   samples
	examples  int64
	errs      []error
}

func newClient(srv *server, tr *tracer) *client {
	return &client{srv: srv, tr: tr, gens: samples{}, traced: samples{}, appends: samples{}}
}

// generateBody asks for the defaults (templates, every structure, no
// evidence cap) with the worker ask of a 2-vCPU host.
var generateBody = []byte(`{"workers": 2}`)

// generate streams one generate response into c.body and returns the time
// from sending the request to its last byte and the example count. A
// trace id below 0 records no span.
func (c *client) generate(tn *tenant, trace int) (time.Duration, int, error) {
	tn.rw.RLock()
	defer tn.rw.RUnlock()
	var tr *tracer
	if trace >= 0 {
		tr = c.tr
	}
	root := tr.begin(trace, -1, "op")
	s := tr.begin(trace, root, "http.generate")
	start := time.Now()
	status, doc, err := c.srv.post("/tables/"+tn.table.name+"/generate", "application/json", generateBody, &c.body)
	d := time.Since(start)
	tr.end(s)
	tr.end(root)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("generate %s: status %d: %s", tn.table.name, status, doc)
	}
	if err != nil {
		return d, 0, err
	}
	n, err := quickCheck(doc, tn.table.name)
	if err != nil {
		return d, n, err
	}
	return d, n, tn.record(tn.applied, n, digest(doc))
}

// timedGenerate is one warm generate of the closed loop.
func (c *client) timedGenerate(tn *tenant, trace int, traced bool) {
	c.attempted++
	if !traced {
		trace = -1
	}
	d, n, err := c.generate(tn, trace)
	if err != nil {
		c.errs = append(c.errs, err)
		return
	}
	c.examples += int64(n)
	if traced {
		c.ntraced++
		c.traced.add(tn.table.name, d)
	} else {
		c.gens.add(tn.table.name, d)
	}
}

// timedAppend is one append of the closed loop.
func (c *client) timedAppend(tn *tenant) {
	c.attempted++
	d, err := c.appendRows(tn)
	if err != nil {
		c.errs = append(c.errs, err)
		return
	}
	c.appends.add(tn.table.name, d)
}

// appendRows appends the tenant's next delta and checks the row count the
// server reports. The time runs from sending the request to the reply.
func (c *client) appendRows(tn *tenant) (time.Duration, error) {
	tn.rw.Lock()
	defer tn.rw.Unlock()
	j := tn.applied
	start := time.Now()
	status, body, err := c.srv.post("/tables/"+tn.table.name+"/append", "text/csv", tn.deltas[j], nil)
	d := time.Since(start)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("append %s: status %d: %s", tn.table.name, status, body)
	}
	if err != nil {
		return d, err
	}
	var reply struct{ Rows int }
	if err := json.Unmarshal(body, &reply); err != nil {
		return d, fmt.Errorf("append %s: %w", tn.table.name, err)
	}
	if want := tn.table.rows + j + 1; reply.Rows != want {
		return d, fmt.Errorf("append %s: server holds %d rows, want %d", tn.table.name, reply.Rows, want)
	}
	tn.applied++
	return d, nil
}

// quickCheck is the per-response check of the closed loop, cheap enough
// not to compete with the server for the CPU: every line is a JSON object
// that names the tenant. The first and last response of each tenant are
// checked in full.
func quickCheck(doc []byte, name string) (int, error) {
	prefix := []byte(`{"Dataset":"` + name + `",`)
	n := 0
	for len(doc) > 0 {
		i := bytes.IndexByte(doc, '\n')
		if i < 0 || !bytes.HasPrefix(doc, prefix) || doc[i-1] != '}' {
			return n, fmt.Errorf("%s: example %d is not a JSON line naming the table", name, n+1)
		}
		n++
		doc = doc[i+1:]
	}
	if n == 0 {
		return 0, fmt.Errorf("%s: empty response", name)
	}
	return n, nil
}
