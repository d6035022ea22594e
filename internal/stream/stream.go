// Package stream persists a pythia example stream as sharded NDJSON files
// with a checkpointed resume manifest — the constant-memory counterpart to
// collecting a []Example. A FileSink plugs into Generator.GenerateStream:
// examples append to the current shard file (one JSON object per line,
// byte-identical to json.Encoder output), shards rotate at a fixed example
// count, and every N examples — always at a unit boundary — the sink
// flushes, syncs and atomically rewrites manifest.json with the options
// fingerprint, seed, per-shard example/byte counts and the first unit not
// yet covered by the flushed prefix.
//
// Checkpoints are pipelined: the caller's goroutine only flushes the shard
// buffer and snapshots the state; one background goroutine fsyncs the
// shard, writes and fsyncs the manifest temp file, renames it and fsyncs
// the directory. At most one checkpoint is in flight — the next
// checkpoint, a shard rotation, Finish and Close wait for it first and
// return its error — so generation overlaps the fsyncs without ever
// reordering them.
//
// The manifest is the durability contract (the checkpoint-every-N +
// same-args-resume pattern): everything it records is on disk — a
// manifest is only written after the fsync of the bytes it records has
// returned — and anything past it is disposable. Resuming with the same
// arguments truncates each shard back to its recorded byte count, deletes
// shards the manifest never committed, replays the text-dedup set from the
// surviving lines and reports the unit index to continue from — so an
// interrupted run picks up at its last checkpoint and completes to a
// byte-identical total output.
// A fingerprint or layout mismatch refuses to resume rather than silently
// mixing two different streams.
package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/pythia"
	"repro/internal/telemetry"
)

// Defaults for Config zero values.
const (
	DefaultCheckpointEvery = 1000
	DefaultShardSize       = 100_000
)

const (
	manifestVersion = 1
	manifestName    = "manifest.json"
	shardPattern    = "shard-%05d.ndjson"
	// shardBufSize is the shard write buffer: large writes keep the
	// per-example cost off the syscall path.
	shardBufSize = 64 << 10
)

// met holds the sink's metric handles: examples flushed to durable
// storage, checkpoints written (both advanced when a checkpoint commits,
// not when it is issued), and units skipped on resume.
var met = struct {
	flushed     *telemetry.Counter
	checkpoints *telemetry.Counter
	skipped     *telemetry.Counter
}{
	flushed:     telemetry.Default().Counter("stream.examples_flushed"),
	checkpoints: telemetry.Default().Counter("stream.checkpoints_written"),
	skipped:     telemetry.Default().Counter("stream.units_skipped"),
}

// ShardInfo is one output file's state as of the last checkpoint. Bytes is
// the flushed prefix length — resume truncates the file back to it.
type ShardInfo struct {
	File     string `json:"file"`
	Examples int    `json:"examples"`
	Bytes    int64  `json:"bytes"`
}

// Manifest is the checkpoint record written to manifest.json. Every field
// describes the durable prefix only: Examples examples across Shards, all
// units below NextUnit fully flushed. Complete marks a finished run.
type Manifest struct {
	Version         int         `json:"version"`
	Fingerprint     string      `json:"fingerprint"`
	Seed            int64       `json:"seed"`
	CheckpointEvery int         `json:"checkpoint_every"`
	ShardSize       int         `json:"shard_size"`
	Shards          []ShardInfo `json:"shards"`
	Examples        int         `json:"examples"`
	NextUnit        int         `json:"next_unit"`
	Complete        bool        `json:"complete"`
}

// Config describes a streaming run directory.
type Config struct {
	// Dir is the output directory (created if missing).
	Dir string
	// Fingerprint identifies the generation arguments — use
	// Options.Fingerprint. Resume refuses a mismatch.
	Fingerprint string
	// Seed is recorded in the manifest and checked on resume.
	Seed int64
	// CheckpointEvery is the example interval between manifest
	// checkpoints (0 = DefaultCheckpointEvery; negative = only the final
	// manifest). Checkpoints land on the next unit boundary at or after
	// the interval.
	CheckpointEvery int
	// ShardSize is the example count per shard file (0 = DefaultShardSize).
	// Resume refuses a mismatch: shard layout determines byte offsets.
	ShardSize int
}

// defaults fills zero values.
func (c Config) defaults() Config {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	return c
}

// countingWriter tracks the bytes actually handed to the file, so flushed
// offsets are known without seeking.
type countingWriter struct {
	f *os.File
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

// FileSink writes the example stream to sharded NDJSON files under one
// directory, checkpointing through a manifest. It implements
// pythia.ExampleSink and pythia.UnitSink; it is not safe for concurrent
// use (GenerateStream emits from one goroutine), apart from the one
// background checkpoint it runs itself.
type FileSink struct {
	cfg    Config
	shards []ShardInfo // live state; committed to the manifest at checkpoints
	enc    pythia.LineEncoder

	cur    *os.File
	curCW  *countingWriter
	curBuf *bufio.Writer

	total           int // examples written (including buffered)
	flushed         int // examples recorded by the last committed manifest
	sinceCheckpoint int
	nextUnit        int // first unit not fully written

	// pending carries the in-flight checkpoint's result (nil when none is
	// in flight); pendingExamples is the example count it records.
	pending         chan error
	pendingExamples int
}

// Open creates or resumes a streaming run in cfg.Dir. With resume false
// the directory must not already hold a manifest (refuse rather than
// silently overwrite an interrupted run). With resume true an existing
// manifest is validated against cfg — fingerprint, seed and shard size
// must match — shard files are truncated to the manifest's flushed
// prefix, uncommitted shards are deleted, and the returned pythia.Resume
// carries the continue-from unit plus the replayed dedup set. Resuming a
// directory with no manifest degrades to a fresh start.
func Open(cfg Config, resume bool) (*FileSink, pythia.Resume, error) {
	cfg = cfg.defaults()
	if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, pythia.Resume{}, err
	}
	m, err := readManifest(filepath.Join(cfg.Dir, manifestName))
	switch {
	case os.IsNotExist(err):
		// Fresh start. Clear any stale shard files (a run killed before
		// its first checkpoint leaves shards but no manifest) so the
		// directory holds exactly this run's output.
		if err := removeShards(cfg.Dir, nil); err != nil {
			return nil, pythia.Resume{}, err
		}
		s := &FileSink{cfg: cfg}
		return s, pythia.Resume{}, nil
	case err != nil:
		return nil, pythia.Resume{}, fmt.Errorf("stream: read manifest: %w", err)
	case !resume:
		return nil, pythia.Resume{}, fmt.Errorf("stream: %s already holds a run manifest; pass -resume to continue it or use an empty directory", cfg.Dir)
	}
	res, sink, err := resumeFrom(cfg, m)
	if err != nil {
		return nil, pythia.Resume{}, err
	}
	return sink, res, nil
}

// resumeFrom validates the manifest, restores the flushed prefix and
// rebuilds the sink's live state on top of it.
func resumeFrom(cfg Config, m *Manifest) (pythia.Resume, *FileSink, error) {
	if m.Version != manifestVersion {
		return pythia.Resume{}, nil, fmt.Errorf("stream: manifest version %d, this build writes %d", m.Version, manifestVersion)
	}
	if m.Fingerprint != cfg.Fingerprint {
		return pythia.Resume{}, nil, fmt.Errorf("stream: refusing to resume: the run in %s was generated with different arguments (manifest fingerprint %.12s…, current %.12s…)", cfg.Dir, m.Fingerprint, cfg.Fingerprint)
	}
	if m.Seed != cfg.Seed {
		return pythia.Resume{}, nil, fmt.Errorf("stream: refusing to resume: manifest seed %d, current %d", m.Seed, cfg.Seed)
	}
	if m.ShardSize != cfg.ShardSize {
		return pythia.Resume{}, nil, fmt.Errorf("stream: refusing to resume: manifest shard size %d, current %d (shard layout must match)", m.ShardSize, cfg.ShardSize)
	}

	// Drop anything the manifest never committed: extra shard files from
	// after the checkpoint, and the tail of each committed shard.
	committed := map[string]bool{}
	for _, sh := range m.Shards {
		committed[sh.File] = true
	}
	if err := removeShards(cfg.Dir, committed); err != nil {
		return pythia.Resume{}, nil, err
	}
	seen := make(map[string]bool, m.Examples)
	for _, sh := range m.Shards {
		path := filepath.Join(cfg.Dir, sh.File)
		if err := os.Truncate(path, sh.Bytes); err != nil {
			return pythia.Resume{}, nil, fmt.Errorf("stream: truncate %s to flushed prefix: %w", sh.File, err)
		}
		if err := replaySeen(path, sh, seen); err != nil {
			return pythia.Resume{}, nil, err
		}
	}
	if len(seen) != m.Examples {
		return pythia.Resume{}, nil, fmt.Errorf("stream: manifest records %d examples but shards replay %d distinct texts", m.Examples, len(seen))
	}

	s := &FileSink{
		cfg:      cfg,
		shards:   append([]ShardInfo(nil), m.Shards...),
		total:    m.Examples,
		flushed:  m.Examples,
		nextUnit: m.NextUnit,
	}
	// Reopen the last committed shard for appending; rotation on the next
	// Emit handles an exactly-full shard.
	if n := len(s.shards); n > 0 {
		last := s.shards[n-1]
		f, err := os.OpenFile(filepath.Join(cfg.Dir, last.File), os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			return pythia.Resume{}, nil, err
		}
		s.cur = f
		s.curCW = &countingWriter{f: f, n: last.Bytes}
		s.curBuf = bufio.NewWriterSize(s.curCW, shardBufSize)
	}
	met.skipped.Add(int64(m.NextUnit))
	return pythia.Resume{NextUnit: m.NextUnit, Seen: seen}, s, nil
}

// replaySeen reads one truncated shard and folds every example text into
// the dedup set. The flushed stream is already deduplicated, so each line
// contributes one distinct text.
func replaySeen(path string, sh ShardInfo, seen map[string]bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	lines := 0
	for dec.More() {
		var ex struct{ Text string }
		if err := dec.Decode(&ex); err != nil {
			return fmt.Errorf("stream: replay %s line %d: %w", sh.File, lines+1, err)
		}
		lines++
		seen[ex.Text] = true
	}
	if lines != sh.Examples {
		return fmt.Errorf("stream: shard %s replays %d examples, manifest records %d", sh.File, lines, sh.Examples)
	}
	return nil
}

// rotate finalizes the current shard (if any) and opens the next one.
func (s *FileSink) rotate() error {
	if s.cur != nil {
		if err := s.closeCurrent(); err != nil {
			return err
		}
	}
	name := fmt.Sprintf(shardPattern, len(s.shards))
	f, err := os.Create(filepath.Join(s.cfg.Dir, name))
	if err != nil {
		return err
	}
	s.cur = f
	s.curCW = &countingWriter{f: f}
	s.curBuf = bufio.NewWriterSize(s.curCW, shardBufSize)
	s.shards = append(s.shards, ShardInfo{File: name})
	return nil
}

// closeCurrent waits for the in-flight checkpoint (it may be syncing this
// file), then flushes, syncs and closes the open shard file, recording its
// final byte length — a closed shard is fully durable, so later manifests
// must describe all of it, not just its last mid-shard checkpoint.
func (s *FileSink) closeCurrent() error {
	if err := s.wait(); err != nil {
		return err
	}
	if err := s.curBuf.Flush(); err != nil {
		return err
	}
	if err := s.cur.Sync(); err != nil {
		return err
	}
	s.shards[len(s.shards)-1].Bytes = s.curCW.n
	err := s.cur.Close()
	s.cur, s.curBuf, s.curCW = nil, nil, nil
	return err
}

// Emit appends one example to the current shard as a JSON line — the
// exact bytes json.Encoder would produce (pythia.LineEncoder), so
// concatenating the shards reproduces Generate's NDJSON byte-for-byte.
func (s *FileSink) Emit(ex pythia.Example) error {
	cur := len(s.shards) - 1
	if s.cur == nil || s.shards[cur].Examples >= s.cfg.ShardSize {
		if err := s.rotate(); err != nil {
			return err
		}
		cur = len(s.shards) - 1
	}
	// Encoding into the buffer's free tail makes the Write a no-copy
	// commit whenever the line fits.
	if _, err := s.curBuf.Write(s.enc.Append(s.curBuf.AvailableBuffer(), ex)); err != nil {
		return err
	}
	s.shards[cur].Examples++
	s.total++
	s.sinceCheckpoint++
	return nil
}

// EndUnit receives unit boundaries from GenerateStream and checkpoints
// once the configured example interval has passed. Checkpoints only ever
// land here — a manifest always describes a whole-unit prefix.
func (s *FileSink) EndUnit(unit int) error {
	s.nextUnit = unit + 1
	if s.cfg.CheckpointEvery > 0 && s.sinceCheckpoint >= s.cfg.CheckpointEvery {
		return s.checkpoint(false)
	}
	return nil
}

// checkpoint issues a checkpoint of the written prefix: after the previous
// one has committed, flush the shard buffer and snapshot the shards,
// example count and next unit, then hand the durable half to a background
// goroutine — fsync the shard, atomically replace manifest.json (write
// temp + fsync + rename + directory fsync). The manifest is written only
// after the shard's fsync returned, so it never records bytes that are
// not on disk.
func (s *FileSink) checkpoint(complete bool) error {
	if err := s.wait(); err != nil {
		return err
	}
	if s.cur != nil {
		if err := s.curBuf.Flush(); err != nil {
			return err
		}
		s.shards[len(s.shards)-1].Bytes = s.curCW.n
	}
	m := Manifest{
		Version:         manifestVersion,
		Fingerprint:     s.cfg.Fingerprint,
		Seed:            s.cfg.Seed,
		CheckpointEvery: s.cfg.CheckpointEvery,
		ShardSize:       s.cfg.ShardSize,
		Shards:          append([]ShardInfo(nil), s.shards...),
		Examples:        s.total,
		NextUnit:        s.nextUnit,
		Complete:        complete,
	}
	f, path, newlyFlushed := s.cur, filepath.Join(s.cfg.Dir, manifestName), int64(s.total-s.flushed)
	done := make(chan error, 1)
	go func() {
		if f != nil {
			if err := f.Sync(); err != nil {
				done <- err
				return
			}
		}
		if err := writeManifest(path, m); err != nil {
			done <- err
			return
		}
		met.checkpoints.Inc()
		met.flushed.Add(newlyFlushed)
		done <- nil
	}()
	s.pending, s.pendingExamples = done, s.total
	s.sinceCheckpoint = 0
	return nil
}

// wait blocks until the in-flight checkpoint, if any, has committed or
// failed, and returns its error. A failed checkpoint leaves the previous
// manifest in place; the next successful one covers its bytes too.
func (s *FileSink) wait() error {
	if s.pending == nil {
		return nil
	}
	err := <-s.pending
	s.pending = nil
	if err == nil {
		s.flushed = s.pendingExamples
	}
	return err
}

// Finish closes the last shard, writes the final manifest with the
// completion marker and waits for it to commit. Call it only after
// GenerateStream returned nil; after an error, call Close instead so the
// last durable checkpoint stays the resume point.
func (s *FileSink) Finish() error {
	if s.cur != nil {
		if err := s.closeCurrent(); err != nil {
			return err
		}
	}
	if err := s.checkpoint(true); err != nil {
		return err
	}
	return s.wait()
}

// Close waits for the in-flight checkpoint and releases the open shard
// file without touching the manifest: data past the last checkpoint stays
// in the file (resume truncates it), and the manifest keeps describing
// the durable prefix. It returns the in-flight checkpoint's error, if any.
func (s *FileSink) Close() error {
	err := s.wait()
	if s.cur == nil {
		return err
	}
	err = errors.Join(err, s.curBuf.Flush(), s.cur.Close())
	s.cur, s.curBuf, s.curCW = nil, nil, nil
	return err
}

// Examples returns the number of examples written so far (including any
// not yet checkpointed).
func (s *FileSink) Examples() int { return s.total }

// Shards returns the number of shard files written so far.
func (s *FileSink) Shards() int { return len(s.shards) }

// ReadManifest loads the manifest of a run directory.
func ReadManifest(dir string) (*Manifest, error) {
	return readManifest(filepath.Join(dir, manifestName))
}

func readManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &m, nil
}

// removeShards deletes shard files in dir that are not in keep (nil keep
// deletes every shard file).
func removeShards(dir string, keep map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".ndjson") && !keep[name] {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeManifest(path string, m Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, append(b, '\n')); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// The rename is only durable once the directory entry is: without this
	// fsync a crash after the rename can resurrect the previous manifest,
	// orphaning shards the new one had committed.
	return syncDir(filepath.Dir(path))
}

// writeFileSync writes b to path and syncs it to stable storage — the
// manifest must be durable before the rename publishes it.
func writeFileSync(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		//lint:ignore err-ignored the write error is the failure being reported; Close here only releases the fd
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		//lint:ignore err-ignored the sync error is the failure being reported; Close here only releases the fd
		_ = f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making its entries (a just-renamed manifest
// above all) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		//lint:ignore err-ignored the sync error is the failure being reported; Close here only releases the fd
		_ = d.Close()
		return err
	}
	return d.Close()
}
