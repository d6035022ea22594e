// Command pythia-serve is the multi-tenant generation service: upload CSV
// tables over HTTP, read back their profile and ambiguity metadata, and
// stream generated training examples as NDJSON. One process serves many
// tables concurrently — registrations are snapshot-published by the engine,
// so uploads never stall or corrupt in-flight generate streams — and every
// generate request draws its worker pool from one process-wide budget.
//
// Serve mode (-model boots the metadata predictor from a pythia train
// -save artifact instead of the rule-based default; POST .../append
// ingests a CSV delta incrementally):
//
//	pythia-serve -addr :8080 -budget 8 -max-inflight 64 [-model model.json]
//	curl -X POST --data-binary @basket.csv 'localhost:8080/tables?name=Basket'
//	curl localhost:8080/tables/Basket/profile
//	curl -X POST --data-binary @delta.csv localhost:8080/tables/Basket/append
//	curl -X POST -d '{"workers":4}' localhost:8080/tables/Basket/generate
//
// SIGINT/SIGTERM drain in-flight streams (up to -drain) before exit.
//
// Hammer mode measures throughput and tail latency and writes a JSON
// report; with no -url it self-hosts a fresh server on a loopback port,
// uploads the bundled Basket fixture, and hammers that:
//
//	pythia-serve -hammer -n 64 -c 8 -workers 2 -out BENCH_9.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "serve address")
	maxInflight := flag.Int("max-inflight", serve.DefaultMaxInflight, "max concurrently streaming generate requests; excess gets 429")
	budget := flag.Int("budget", 0, "process-wide generation worker budget (0 = GOMAXPROCS)")
	maxUpload := flag.Int64("max-upload", serve.DefaultMaxUploadBytes, "max CSV upload size in bytes")
	modelPath := flag.String("model", "", "load a trained model artifact (pythia train -save) as the metadata predictor")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain window for in-flight streams")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /debug/vars on this address (e.g. localhost:6060)")
	metrics := flag.String("metrics", "", "write a telemetry snapshot (JSON) to this file at exit")

	hammer := flag.Bool("hammer", false, "run the load client instead of serving")
	hammerURL := flag.String("url", "", "hammer target base URL (default: self-host a server on a loopback port)")
	hammerTable := flag.String("table", "Basket", "hammer target table name")
	hammerN := flag.Int("n", 64, "hammer: total generate requests")
	hammerC := flag.Int("c", 8, "hammer: concurrent requests")
	hammerWorkers := flag.Int("workers", 2, "hammer: per-request worker ask")
	hammerOut := flag.String("out", "BENCH_9.json", "hammer: write the measured report to this file")
	flag.Parse()

	if err := run(runConfig{
		addr: *addr, maxInflight: *maxInflight, budget: *budget,
		maxUpload: *maxUpload, model: *modelPath, drain: *drain, pprofAddr: *pprofAddr, metrics: *metrics,
		hammer: *hammer, hammerURL: *hammerURL, hammerTable: *hammerTable,
		hammerN: *hammerN, hammerC: *hammerC, hammerWorkers: *hammerWorkers, hammerOut: *hammerOut,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "pythia-serve: %v\n", err)
		os.Exit(1)
	}
}

type runConfig struct {
	addr        string
	maxInflight int
	budget      int
	maxUpload   int64
	model       string
	drain       time.Duration
	pprofAddr   string
	metrics     string

	hammer        bool
	hammerURL     string
	hammerTable   string
	hammerN       int
	hammerC       int
	hammerWorkers int
	hammerOut     string
}

func run(cfg runConfig) error {
	if cfg.pprofAddr != "" {
		dbg, err := telemetry.Serve(cfg.pprofAddr)
		if err != nil {
			return err
		}
		defer func() {
			//lint:ignore err-ignored best-effort teardown of the debug listener at exit
			_ = dbg.Close()
		}()
		fmt.Fprintf(os.Stderr, "pythia-serve: pprof and /debug/vars on http://%s/debug/pprof\n", dbg.Addr())
	}
	if cfg.metrics != "" {
		defer func() {
			if err := telemetry.Default().WriteSnapshot(cfg.metrics); err != nil {
				fmt.Fprintf(os.Stderr, "pythia-serve: write metrics: %v\n", err)
			}
		}()
	}
	if cfg.hammer {
		return runHammer(cfg)
	}
	return runServe(cfg)
}

// runServe hosts the service until SIGINT/SIGTERM, then drains.
func runServe(cfg runConfig) error {
	var pred model.Predictor
	if cfg.model != "" {
		m, err := artifact.LoadModel(cfg.model, "")
		if err != nil {
			return fmt.Errorf("load model artifact: %w", err)
		}
		pred = m
		fmt.Fprintf(os.Stderr, "pythia-serve: loaded model artifact from %s\n", cfg.model)
	}
	s := serve.NewServer(serve.Config{
		MaxInflight:    cfg.maxInflight,
		BudgetSlots:    cfg.budget,
		MaxUploadBytes: cfg.maxUpload,
		Predictor:      pred,
	})
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(s.Handler())
	fmt.Fprintf(os.Stderr, "pythia-serve: listening on http://%s (budget=%d, max-inflight=%d)\n",
		ln.Addr(), s.Budget().Slots(), cfg.maxInflight)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "pythia-serve: draining in-flight streams (up to %s)\n", cfg.drain)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "pythia-serve: drained, bye")
	return nil
}

// Read timeouts of the serving listener. A client that stalls while
// sending headers is disconnected after readHeaderTimeout; readTimeout
// bounds reading a whole request, body included, and is sized so a
// DefaultMaxUploadBytes (32 MiB) upload completes at ~110 KiB/s. There is
// no write timeout: generate responses are long-lived streams.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 5 * time.Minute
)

// newHTTPServer wraps the serving handler in an http.Server with the read
// timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

// runHammer measures p50/p99 latency and examples/sec. Without -url it
// brings up its own server on a loopback port and uploads the bundled
// fixture through the real endpoint, so the numbers include the full HTTP
// path.
func runHammer(cfg runConfig) error {
	base := cfg.hammerURL
	if base == "" {
		s := serve.NewServer(serve.Config{
			MaxInflight: cfg.maxInflight,
			BudgetSlots: cfg.budget,
		})
		srv := httptestServer(s.Handler())
		defer srv.close()
		base = srv.url
		resp, err := http.Post(base+"/tables?name="+cfg.hammerTable, "text/csv", bytes.NewReader(serve.FixtureCSV))
		if err != nil {
			return fmt.Errorf("upload fixture: %w", err)
		}
		//lint:ignore err-ignored response body already fully decoded by status check below
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("upload fixture: status %d", resp.StatusCode)
		}
		fmt.Fprintf(os.Stderr, "pythia-serve: self-hosted on %s, fixture %q uploaded\n", base, cfg.hammerTable)
	}
	res, err := serve.Hammer(context.Background(), serve.HammerConfig{
		BaseURL:     base,
		Table:       cfg.hammerTable,
		Requests:    cfg.hammerN,
		Concurrency: cfg.hammerC,
		Workers:     cfg.hammerWorkers,
	})
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(cfg.hammerOut, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pythia-serve: %d requests (%d rejected, %d failed), %d examples, p50=%.1fms p99=%.1fms, %.0f examples/sec -> %s\n",
		res.Requests, res.Rejected429, res.Failures, res.Examples, res.P50MS, res.P99MS, res.ExamplesPerSec, cfg.hammerOut)
	return nil
}

// httptestServer is a minimal self-hosted listener (net/http/httptest is
// test-only by convention; this keeps the binary's dependencies plain).
type selfServer struct {
	url string
	srv *http.Server
	ln  net.Listener
}

func httptestServer(h http.Handler) *selfServer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := newHTTPServer(h)
	go func() {
		//lint:ignore err-ignored Serve always returns ErrServerClosed after close
		_ = srv.Serve(ln)
	}()
	return &selfServer{url: "http://" + ln.Addr().String(), srv: srv, ln: ln}
}

func (s *selfServer) close() {
	//lint:ignore err-ignored best-effort teardown at process exit
	_ = s.srv.Close()
}
