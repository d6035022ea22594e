package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call into a layer's public function. All spans of one
// operation (a table, a request) share Trace. A span with Calls > 1 stands
// for that many calls of a per-example function (FileSink.Emit); Dur is
// their summed time, and Start and End bound the first and last call.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the operation's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int    `json:"calls"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced operations call the same code.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(trace, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans), Parent: parent, Name: name, Start: now, Calls: 1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Dur = now, now-s.Start
}

// aggregate records calls calls of one function as a single span.
func (t *tracer) aggregate(trace, parent int, name string, first, last time.Time, dur time.Duration, calls int) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Trace: trace, ID: len(t.spans), Parent: parent, Name: name,
		Start: first.Sub(t.base).Nanoseconds(), End: last.Sub(t.base).Nanoseconds(),
		Dur: dur.Nanoseconds(), Calls: calls,
	})
}

// layerTime is the summed and self time of every span with one name.
type layerTime struct {
	Spans int   `json:"spans"`
	Calls int   `json:"calls"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// times sums spans by name. A span's self time is its time minus the time
// its child spans cover; children of one span never overlap, because each
// operation calls its layers one after another.
func (t *tracer) times() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Spans++
		lt.Calls += s.Calls
		lt.Total += s.Dur
		lt.Self += s.Dur - child[i]
		out[s.Name] = lt
	}
	return out
}

// write stores every span and the per-name times as one JSON file.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	times := t.times()
	t.mu.Lock()
	b, err := json.Marshal(map[string]any{"spans": t.spans, "layers": times})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// counters is one reading of the program's telemetry registry plus the Go
// runtime's allocation and GC counters.
type counters struct {
	c     map[string]int64 // counters
	sum   map[string]int64 // histogram sums
	alloc uint64           // bytes allocated on the heap, cumulative
	gcCPU float64          // GC CPU seconds, cumulative
}

const (
	allocMetric   = "/gc/heap/allocs:bytes"
	gcCPUMetric   = "/cpu/classes/gc/total:cpu-seconds"
	heapObjMetric = "/memory/classes/heap/objects:bytes"
)

func readCounters() (counters, error) {
	var snap struct {
		Counters   map[string]int64
		Histograms map[string]struct{ Sum int64 }
	}
	b, err := telemetry.Default().Snapshot()
	if err == nil {
		err = json.Unmarshal(b, &snap)
	}
	if err != nil {
		return counters{}, fmt.Errorf("telemetry snapshot: %w", err)
	}
	out := counters{c: snap.Counters, sum: map[string]int64{}}
	for name, h := range snap.Histograms {
		out.sum[name] = h.Sum
	}
	s := []metrics.Sample{{Name: allocMetric}, {Name: gcCPUMetric}}
	metrics.Read(s)
	out.alloc = s[0].Value.Uint64()
	out.gcCPU = s[1].Value.Float64()
	return out, nil
}

// delta is the change between two readings.
type delta struct {
	c, sum map[string]int64
	alloc  float64
	gcCPU  float64
}

func (b counters) to(a counters) delta {
	d := delta{c: map[string]int64{}, sum: map[string]int64{}, alloc: float64(a.alloc - b.alloc), gcCPU: a.gcCPU - b.gcCPU}
	for k, v := range a.c {
		d.c[k] = v - b.c[k]
	}
	for k, v := range a.sum {
		d.sum[k] = v - b.sum[k]
	}
	return d
}

// prefixed returns the deltas of every counter with the given prefix and
// suffix, by name.
func (d delta) prefixed(prefix, suffix string) map[string]int64 {
	out := map[string]int64{}
	for k, v := range d.c {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			out[k] = v
		}
	}
	return out
}

// skew is max/mean over the per-worker unit counts that moved (1 when the
// work was even, 0 when there was none).
func skew(units map[string]int64) float64 {
	names := make([]string, 0, len(units))
	for k, v := range units {
		if v > 0 {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		return 0
	}
	sort.Strings(names)
	var sum, max int64
	for _, k := range names {
		sum += units[k]
		if units[k] > max {
			max = units[k]
		}
	}
	return float64(max) * float64(len(names)) / float64(sum)
}

// heapSampler reads the bytes of live and not yet swept heap objects from
// runtime/metrics every two milliseconds.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	at      []time.Time
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			h.at = append(h.at, time.Now())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the heap's high-water mark in MiB:
// the median over one-second windows of each window's highest sample. A
// single highest sample depends on how one collection happens to line up
// with one allocation burst; the typical peak of a second does not. It
// also returns the highest sample.
func (h *heapSampler) finish() (peak, max float64) {
	close(h.stop)
	<-h.done
	var peaks []float64
	var end time.Time
	for i, v := range h.samples {
		if i == 0 || h.at[i].After(end) {
			peaks = append(peaks, 0)
			end = h.at[i].Add(time.Second)
		}
		peaks[len(peaks)-1] = math.Max(peaks[len(peaks)-1], v)
	}
	return quantile(peaks, 0.5), quantile(h.samples, 1)
}
