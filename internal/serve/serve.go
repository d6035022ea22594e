// Package serve is the multi-tenant HTTP serving layer over the pythia
// pipeline: upload a CSV table once, profile it and discover its ambiguity
// metadata, then stream generated training examples on demand — the
// "millions of examples in seconds" template path behind a request/response
// surface instead of a batch CLI.
//
// All tenants share one sqlengine.Engine; its snapshot registry makes a
// registration (an upload) safe while other tenants' generate streams are
// mid-query, and one plan/index/vector cache pool serves every request.
// Generation concurrency is governed twice: an admission limit caps the
// number of simultaneously streaming requests (excess gets 429), and a
// process-wide parallel.Budget hands each admitted request a worker grant —
// at least one slot, at most its ask — so the sum of all streams' worker
// pools never oversubscribes the machine.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/kb"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/profiling"
	"repro/internal/pythia"
	"repro/internal/relation"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
)

// met holds the serving layer's metric handles, visible in /debug/vars and
// -metrics snapshots next to the engine and pipeline counters.
var met = struct {
	uploads          *telemetry.Counter
	uploadUnchanged  *telemetry.Counter
	appends          *telemetry.Counter
	generateRequests *telemetry.Counter
	rejected         *telemetry.Counter
	disconnects      *telemetry.Counter
	streamErrors     *telemetry.Counter
	examples         *telemetry.Counter
	activeStreams    *telemetry.Gauge
	requestNS        *telemetry.Histogram
}{
	uploads:          telemetry.Default().Counter("serve.uploads"),
	uploadUnchanged:  telemetry.Default().Counter("serve.upload_unchanged"),
	appends:          telemetry.Default().Counter("serve.appends"),
	generateRequests: telemetry.Default().Counter("serve.generate_requests"),
	rejected:         telemetry.Default().Counter("serve.rejected_429"),
	disconnects:      telemetry.Default().Counter("serve.client_disconnects"),
	streamErrors:     telemetry.Default().Counter("serve.stream_errors"),
	examples:         telemetry.Default().Counter("serve.examples_streamed"),
	activeStreams:    telemetry.Default().Gauge("serve.active_streams"),
	requestNS:        telemetry.Default().LatencyHistogram("serve.request_ns"),
}

// Config sizes a Server.
type Config struct {
	// MaxInflight caps concurrently streaming generate requests; excess
	// requests are answered 429 immediately (0 = DefaultMaxInflight).
	MaxInflight int
	// BudgetSlots is the process-wide worker budget generate requests draw
	// from (0 = GOMAXPROCS).
	BudgetSlots int
	// MaxUploadBytes bounds a table upload body (0 = DefaultMaxUploadBytes).
	MaxUploadBytes int64
	// Predictor discovers ambiguity metadata for uploaded tables
	// (nil = the training-free ulabel method over the default KB).
	Predictor model.Predictor
}

// Defaults for Config zero values.
const (
	DefaultMaxInflight    = 64
	DefaultMaxUploadBytes = 32 << 20
)

// tenant is one uploaded table with its derived artifacts. Tenants are
// immutable once built; re-uploading a name or appending rows swaps the
// whole tenant. The incremental profiler is the one mutable exception:
// it is only touched (folded forward, or replaced after a failed append)
// under Server.ingestMu, never by readers.
type tenant struct {
	name    string // the registered (original-case) table name
	table   *relation.Table
	profile *profiling.Profile
	md      *pythia.Metadata
	gen     *pythia.Generator
	hash    string // sha256 of the upload body; "" once appends diverge from it
	inc     *profiling.Incremental
}

// Server is the multi-tenant serving state. Create with NewServer, mount
// via Handler, shut down by draining the enclosing http.Server — handlers
// hold no state that outlives their request.
type Server struct {
	cfg      Config
	engine   *sqlengine.Engine
	budget   *parallel.Budget
	pred     model.Predictor
	inflight chan struct{} // generate admission tokens

	mu      sync.RWMutex
	tenants map[string]*tenant // keyed by lowercased name

	// ingestMu serializes the mutating ingest paths (upload replace,
	// append) end to end — from the upload's unchanged-hash check and
	// engine registration through the tenant-map install, and from the
	// append's engine/tenant consistency check through its publish. Each
	// path rebuilds a tenant from the previous one and must observe the
	// engine and the tenant map describing the same table, so the whole
	// read-derive-publish sequence is one critical section. Read paths
	// never take it.
	ingestMu sync.Mutex

	// testHold, when non-nil, makes a generate request carrying the
	// x-test-hold=1 query parameter block after its headers are flushed
	// until the channel is closed or the client disconnects — leverage for
	// the backpressure and shutdown-drain test suites only.
	testHold chan struct{}
}

// NewServer builds a serving instance: one shared engine, one worker
// budget, an empty tenant set.
func NewServer(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	pred := cfg.Predictor
	if pred == nil {
		pred = model.NewULabel(kb.BuildDefault())
	}
	return &Server{
		cfg:      cfg,
		engine:   sqlengine.NewEngine(),
		budget:   parallel.NewBudget(cfg.BudgetSlots),
		pred:     pred,
		inflight: make(chan struct{}, cfg.MaxInflight),
		tenants:  map[string]*tenant{},
	}
}

// Budget exposes the worker budget (for tests and the hammer harness).
func (s *Server) Budget() *parallel.Budget { return s.budget }

// Handler returns the route mux:
//
//	POST /tables?name=N                CSV body -> profile, discover, register
//	GET  /tables                       list tenants
//	GET  /tables/{name}/profile        profiling result
//	GET  /tables/{name}/metadata       discovered ambiguity metadata
//	POST /tables/{name}/append         CSV delta -> incremental re-profile
//	POST /tables/{name}/generate       stream examples as NDJSON
//	GET  /healthz                      liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tables", s.handleUpload)
	mux.HandleFunc("POST /tables/{name}/append", s.handleAppend)
	mux.HandleFunc("GET /tables", s.handleList)
	mux.HandleFunc("GET /tables/{name}/profile", s.handleProfile)
	mux.HandleFunc("GET /tables/{name}/metadata", s.handleMetadata)
	mux.HandleFunc("POST /tables/{name}/generate", s.handleGenerate)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore err-ignored the response is already committed; an encode error here has no channel back to the client
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// validName gates uploaded table names: they appear verbatim inside
// generated SQL, so keep them identifier-shaped.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// lookup resolves a tenant by case-insensitive name.
func (s *Server) lookup(name string) (*tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tn, ok := s.tenants[strings.ToLower(name)]
	return tn, ok
}

// handleUpload ingests one CSV table: parse, profile, discover metadata,
// register with the shared engine (safe during live queries — the snapshot
// registry publishes the new table atomically) and install the tenant.
//
// Re-uploading a byte-identical body is a no-op short-circuit: the body's
// content hash is compared against the installed tenant's before any
// parsing or profiling, so clients that re-push their table on every
// deploy don't pay (or cause) a full re-discovery.
//
// Everything from the unchanged-hash check to the tenant install runs
// under ingestMu: the hash comparison is ordered with appends (which clear
// the hash when they install), and the engine registration inside
// NewGeneratorWith lands in the same critical section as the tenant-map
// install, so an append holding ingestMu always sees the engine and the
// tenant map describing the same table.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	tm := met.requestNS.Time()
	defer tm.Stop()
	name := r.URL.Query().Get("name")
	if !validName(name) {
		writeError(w, http.StatusBadRequest, "missing or invalid ?name= (want 1-64 chars of [A-Za-z0-9_-])")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	sum := sha256.Sum256(body)
	hash := hex.EncodeToString(sum[:])
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if prev, ok := s.lookup(name); ok && prev.hash != "" && prev.hash == hash {
		met.uploadUnchanged.Inc()
		writeJSON(w, http.StatusOK, map[string]any{
			"name":      prev.name,
			"rows":      prev.table.NumRows(),
			"columns":   prev.table.NumCols(),
			"unchanged": true,
		})
		return
	}
	t, err := relation.ReadCSV(name, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse csv: %v", err)
		return
	}
	inc, err := profiling.NewIncremental(t)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "profile: %v", err)
		return
	}
	md, err := pythia.DiscoverWithProfile(t, inc.Profile(), s.pred)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "discover metadata: %v", err)
		return
	}
	tn := &tenant{
		name:    name,
		table:   t,
		profile: md.Profile,
		md:      md,
		gen:     pythia.NewGeneratorWith(s.engine, t, md),
		hash:    hash,
		inc:     inc,
	}
	s.mu.Lock()
	replaced := s.tenants[strings.ToLower(name)] != nil
	s.tenants[strings.ToLower(name)] = tn
	s.mu.Unlock()
	met.uploads.Inc()

	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, map[string]any{
		"name":            name,
		"rows":            t.NumRows(),
		"columns":         t.NumCols(),
		"primary_key":     md.Profile.PrimaryKey,
		"ambiguous_pairs": len(md.Pairs),
		"replaced":        replaced,
	})
}

// handleAppend ingests a CSV delta for an existing tenant: the rows extend
// the registered table copy-on-write (live generate streams keep their
// snapshot), the profile is updated from the delta alone, and only
// attribute pairs whose type classes changed are re-predicted — the
// incremental path of the profiling pipeline. The delta's header must
// match the tenant's schema (same columns, same order, case-insensitive);
// cells parse against the existing column kinds, so an append can never
// silently re-type a column.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	tm := met.requestNS.Time()
	defer tm.Stop()
	tn, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown table %q", r.PathValue("name"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	rows, err := parseDelta(tn.table, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse csv delta: %v", err)
		return
	}
	if len(rows) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{
			"name": tn.name, "appended": 0, "rows": tn.table.NumRows(),
		})
		return
	}

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	// Re-resolve under the ingest lock: a concurrent upload may have
	// swapped the tenant while the delta was parsing.
	tn, ok = s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown table %q", r.PathValue("name"))
		return
	}
	// ingestMu makes the engine registration and the tenant map move
	// together; verify the invariant before extending so a violation
	// surfaces as an error instead of a corrupted incremental profile.
	if cur, reg := s.engine.Table(tn.name); !reg || cur != tn.table {
		writeError(w, http.StatusConflict, "table %q: engine registration does not match the installed tenant", tn.name)
		return
	}
	// Compute-then-publish: extend the table and fold the profile and
	// metadata off the engine first, so a failure in any derivation step
	// leaves the engine serving exactly what the tenant describes.
	oldRows := tn.table.NumRows()
	ext, err := tn.table.Extend(rows)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "append: %v", err)
		return
	}
	prof, err := tn.inc.Append(ext, oldRows)
	if err != nil {
		// Incremental.Append validates before it mutates, so tn.inc still
		// covers tn.table and the tenant stays fully consistent.
		writeError(w, http.StatusInternalServerError, "incremental profile: %v", err)
		return
	}
	md, err := pythia.UpdateMetadata(tn.md, s.pred, ext, tn.inc, oldRows)
	if err != nil {
		// tn.inc absorbed the extension that is now being abandoned;
		// rebuild it over the still-published table before reporting.
		s.restoreIncremental(tn)
		writeError(w, http.StatusInternalServerError, "update metadata: %v", err)
		return
	}
	if err := s.engine.Swap(tn.table, ext); err != nil {
		s.restoreIncremental(tn)
		writeError(w, http.StatusInternalServerError, "publish append: %v", err)
		return
	}
	next := &tenant{
		name:    tn.name,
		table:   ext,
		profile: prof,
		md:      md,
		gen:     pythia.NewGeneratorOver(s.engine, ext, md),
		inc:     tn.inc,
		// hash stays empty: the tenant no longer matches any upload body.
	}
	s.mu.Lock()
	s.tenants[strings.ToLower(tn.name)] = next
	s.mu.Unlock()
	met.appends.Inc()

	writeJSON(w, http.StatusOK, map[string]any{
		"name":            next.name,
		"appended":        len(rows),
		"rows":            ext.NumRows(),
		"primary_key":     prof.PrimaryKey,
		"ambiguous_pairs": len(md.Pairs),
	})
}

// restoreIncremental rebuilds a tenant's incremental profiler from its
// still-published table after a failed append left the profiler covering
// an extension that was never installed. Must be called with ingestMu
// held. If even the rebuild fails (it profiled this exact table once
// already, so it should not), the profiler stays out of sync and later
// appends fail their row-count guard — degraded, never corrupt.
func (s *Server) restoreIncremental(tn *tenant) {
	if inc, err := profiling.NewIncremental(tn.table); err == nil {
		tn.inc = inc
	}
}

// parseDelta reads an appended CSV fragment against an existing schema:
// the header must repeat the table's columns in order, and every cell is
// parsed with the column's established kind (empty cells become NULL).
func parseDelta(t *relation.Table, r io.Reader) ([]relation.Row, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("empty input (want a header row matching the table schema)")
	}
	header := records[0]
	if len(header) != t.NumCols() {
		return nil, fmt.Errorf("header arity %d != table arity %d", len(header), t.NumCols())
	}
	for c, h := range header {
		if !strings.EqualFold(strings.TrimSpace(h), t.Schema[c].Name) {
			return nil, fmt.Errorf("header column %d is %q, table has %q", c, strings.TrimSpace(h), t.Schema[c].Name)
		}
	}
	rows := make([]relation.Row, 0, len(records)-1)
	for i, rec := range records[1:] {
		if len(rec) != t.NumCols() {
			return nil, fmt.Errorf("row %d arity %d != table arity %d", i+1, len(rec), t.NumCols())
		}
		row := make(relation.Row, len(rec))
		for c, cell := range rec {
			v, err := relation.ParseValue(cell, t.Schema[c].Kind)
			if err != nil {
				return nil, fmt.Errorf("row %d: %w", i+1, err)
			}
			row[c] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// handleList returns the tenant inventory, sorted by name.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make([]map[string]any, 0, len(s.tenants))
	for _, tn := range s.tenants {
		out = append(out, map[string]any{
			"name":            tn.name,
			"rows":            tn.table.NumRows(),
			"columns":         tn.table.NumCols(),
			"ambiguous_pairs": len(tn.md.Pairs),
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i]["name"].(string) < out[j]["name"].(string) })
	writeJSON(w, http.StatusOK, map[string]any{"tables": out})
}

// handleProfile serves the profiling result of one tenant.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown table %q", r.PathValue("name"))
		return
	}
	cols := make([]map[string]any, len(tn.profile.Columns))
	for i, st := range tn.profile.Columns {
		cols[i] = map[string]any{
			"name":     st.Name,
			"kind":     st.Kind.String(),
			"distinct": st.Distinct,
			"nulls":    st.Nulls,
			"min":      st.Min.Format(),
			"max":      st.Max.Format(),
			"unique":   st.Unique,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table":          tn.name,
		"rows":           tn.table.NumRows(),
		"primary_key":    tn.profile.PrimaryKey,
		"candidate_keys": tn.profile.CandidateKeys,
		"columns":        cols,
	})
}

// handleMetadata serves the discovered ambiguity metadata of one tenant.
func (s *Server) handleMetadata(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown table %q", r.PathValue("name"))
		return
	}
	pairs := make([]map[string]any, len(tn.md.Pairs))
	for i, p := range tn.md.Pairs {
		pairs[i] = map[string]any{
			"attr_a":        p.AttrA,
			"attr_b":        p.AttrB,
			"label":         p.Label,
			"score":         p.Score,
			"correlation":   p.Correlation,
			"value_overlap": p.ValueOverlap,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table":       tn.name,
		"primary_key": tn.profile.PrimaryKey,
		"pairs":       pairs,
	})
}

// GenerateRequest is the JSON body of POST /tables/{name}/generate. An
// empty body generates with the defaults (template mode, all structures,
// both match types, seed 1).
type GenerateRequest struct {
	// Mode is "templates" (default — the high-throughput path) or "textgen".
	Mode string `json:"mode"`
	// Structures limits generation ("attribute", "row", "full"); empty = all.
	Structures []string `json:"structures"`
	// Match is "both" (default), "contradictory" or "uniform".
	Match string `json:"match"`
	// Questions interleaves interrogative forms with statements.
	Questions bool `json:"questions"`
	// Max caps evidence rows per a-query (0 = mode default: 4 in textgen,
	// unlimited in templates).
	Max int `json:"max"`
	// Seed drives phrasing variety (0 = 1, matching the CLI default).
	Seed int64 `json:"seed"`
	// Workers is the requested worker-pool width; the grant is clamped to
	// what the process-wide budget has free (at least 1) and echoed in the
	// X-Pythia-Workers response header. 0 asks for one slot.
	Workers int `json:"workers"`
}

// options translates the request into pythia.Options (without Workers,
// which the budget decides).
func (g GenerateRequest) options() (pythia.Options, error) {
	opts := pythia.Options{Questions: g.Questions, MaxPerQuery: g.Max, Seed: g.Seed}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	switch g.Mode {
	case "", "templates":
		opts.Mode = pythia.Templates
	case "textgen":
		opts.Mode = pythia.TextGeneration
	default:
		return opts, fmt.Errorf("unknown mode %q (want templates or textgen)", g.Mode)
	}
	for _, st := range g.Structures {
		switch strings.TrimSpace(st) {
		case "attribute":
			opts.Structures = append(opts.Structures, pythia.AttributeAmb)
		case "row":
			opts.Structures = append(opts.Structures, pythia.RowAmb)
		case "full":
			opts.Structures = append(opts.Structures, pythia.FullAmb)
		case "":
		default:
			return opts, fmt.Errorf("unknown structure %q", st)
		}
	}
	switch g.Match {
	case "", "both":
	case "contradictory":
		opts.Matches = []pythia.Match{pythia.Contradictory}
	case "uniform":
		opts.Matches = []pythia.Match{pythia.Uniform}
	default:
		return opts, fmt.Errorf("unknown match %q (want both, contradictory or uniform)", g.Match)
	}
	return opts, nil
}

// handleGenerate streams examples as NDJSON — pythia.LineEncoder lines,
// byte-identical to `pythia generate -json` for the same options — and
// flushes at every unit boundary, so consumers see each a-query's examples
// as soon as the merge frontier releases them, in one write instead of one
// per line. Admission past MaxInflight is refused with 429; the worker
// pool width is whatever the global budget grants. A client disconnect
// aborts generation at the next emit and returns the grant to the budget.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	met.generateRequests.Inc()
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server at its concurrent stream limit (%d)", cap(s.inflight))
		return
	}
	tm := met.requestNS.Time()
	defer tm.Stop()

	tn, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown table %q", r.PathValue("name"))
		return
	}
	var req GenerateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx := r.Context()
	granted, release, err := s.budget.Acquire(ctx, req.Workers)
	if err != nil {
		met.disconnects.Inc()
		return // client gave up while queued for a slot
	}
	defer release()
	opts.Workers = granted

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Pythia-Workers", fmt.Sprint(granted))
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	if s.testHold != nil && r.URL.Query().Get("x-test-hold") == "1" {
		select {
		case <-s.testHold:
		case <-ctx.Done():
			met.disconnects.Inc()
			return
		}
	}

	met.activeStreams.Add(1)
	defer met.activeStreams.Add(-1)
	sink := &responseSink{ctx: ctx, w: w, flusher: flusher}
	err = tn.gen.GenerateStream(opts, sink)
	met.examples.Add(int64(sink.streamed))
	if err != nil {
		// The stream is already committed; all we can do is classify.
		if ctx.Err() != nil {
			met.disconnects.Inc()
		} else {
			met.streamErrors.Inc()
		}
	}
}

// responseBufSize caps the lines a generate stream holds before writing
// them out, so a large unit costs a bounded buffer per request.
const responseBufSize = 64 << 10

// responseSink encodes a generate stream into the response body. Lines
// collect in buf and go out in writes of up to responseBufSize, with one
// flush per unit boundary; Emit checks the request context, so a
// disconnected client stops generation at the next example.
type responseSink struct {
	ctx      context.Context
	w        io.Writer
	flusher  http.Flusher // nil when the writer cannot flush
	enc      pythia.LineEncoder
	buf      []byte
	streamed int
}

func (s *responseSink) Emit(ex pythia.Example) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	s.buf = s.enc.Append(s.buf, ex)
	s.streamed++
	if len(s.buf) >= responseBufSize {
		return s.write()
	}
	return nil
}

// EndUnit writes the unit's remaining lines and flushes the response.
func (s *responseSink) EndUnit(int) error {
	if err := s.write(); err != nil {
		return err
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return nil
}

func (s *responseSink) write() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}
