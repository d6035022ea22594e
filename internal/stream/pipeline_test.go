package stream_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pythia"
	"repro/internal/stream"
)

// numbered is a minimal distinct example for driving a FileSink by hand.
func numbered(i int) pythia.Example {
	return pythia.Example{Dataset: "D", Text: fmt.Sprintf("example %d", i), Op: "="}
}

// TestCheckpointFailureSurfacesOnNextCall: a background checkpoint that
// fails (its manifest temp file cannot be created) is reported by the next
// EndUnit, Finish or Close, and the previous manifest.json stays
// byte-for-byte intact and resumable.
func TestCheckpointFailureSurfacesOnNextCall(t *testing.T) {
	for _, surface := range []string{"EndUnit", "Finish", "Close"} {
		t.Run(surface, func(t *testing.T) {
			dir := t.TempDir()
			cfg := stream.Config{Dir: dir, Fingerprint: "fp", Seed: 1, CheckpointEvery: 1, ShardSize: 100}
			sink, _, err := stream.Open(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Emit(numbered(0)); err != nil {
				t.Fatal(err)
			}
			if err := sink.EndUnit(0); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil { // waits for the checkpoint to commit
				t.Fatal(err)
			}
			manifest := filepath.Join(dir, "manifest.json")
			before, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}

			// A directory where the temp manifest goes makes every later
			// checkpoint fail in the background.
			tmp := manifest + ".tmp"
			if err := os.Mkdir(tmp, 0o777); err != nil {
				t.Fatal(err)
			}
			sink, res, err := stream.Open(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.NextUnit != 1 {
				t.Fatalf("resume at unit %d, want 1", res.NextUnit)
			}
			if err := sink.Emit(numbered(1)); err != nil {
				t.Fatal(err)
			}
			if err := sink.EndUnit(1); err != nil {
				t.Fatalf("issuing the checkpoint returned %v; the failure belongs to the next call", err)
			}

			switch surface {
			case "EndUnit":
				if err := sink.Emit(numbered(2)); err != nil {
					t.Fatal(err)
				}
				err = sink.EndUnit(2)
			case "Finish":
				err = sink.Finish()
			case "Close":
				err = sink.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "manifest.json.tmp") {
				t.Fatalf("%s returned %v, want the failed checkpoint's error", surface, err)
			}
			if surface != "Close" {
				if err := sink.Close(); err != nil {
					t.Fatalf("Close after the reported failure: %v", err)
				}
			}

			after, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("failed checkpoint changed manifest.json:\nbefore %s\nafter  %s", before, after)
			}
			if err := os.Remove(tmp); err != nil {
				t.Fatal(err)
			}
			resumed, res, err := stream.Open(cfg, true)
			if err != nil {
				t.Fatalf("resume after the failed checkpoint: %v", err)
			}
			if res.NextUnit != 1 || len(res.Seen) != 1 {
				t.Errorf("resume position %d with %d seen, want the intact checkpoint (1, 1)", res.NextUnit, len(res.Seen))
			}
			if err := resumed.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCloseAfterAbortLeavesResumableManifest: a run aborted while a
// checkpoint is still in flight (every unit checkpoints) is closed with
// Close, which waits for that checkpoint; the directory then resumes and
// completes byte-identically to an uninterrupted run.
func TestCloseAfterAbortLeavesResumableManifest(t *testing.T) {
	want := wantNDJSON(t, testOpts(1))
	for _, workers := range []int{1, 4} {
		for _, left := range []int{1, 17, 42} {
			opts := testOpts(workers)
			dir := t.TempDir()
			cfg := testConfig(dir, opts)
			cfg.CheckpointEvery = 1
			sink, _, err := stream.Open(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			err = newGenerator(t).GenerateStream(opts, &abortSink{sink: sink, left: left})
			if !errors.Is(err, errKilled) {
				t.Fatalf("workers=%d left=%d: aborted run returned %v, want errKilled", workers, left, err)
			}
			if err := sink.Close(); err != nil {
				t.Fatalf("workers=%d left=%d: Close: %v", workers, left, err)
			}

			resumed, res, err := stream.Open(cfg, true)
			if err != nil {
				t.Fatalf("workers=%d left=%d: resume refused the closed run: %v", workers, left, err)
			}
			if err := newGenerator(t).GenerateStreamFrom(opts, res, resumed); err != nil {
				t.Fatal(err)
			}
			if err := resumed.Finish(); err != nil {
				t.Fatal(err)
			}
			if got := concatShards(t, dir); !bytes.Equal(got, want) {
				t.Errorf("workers=%d left=%d: resumed output differs from uninterrupted run (%d vs %d bytes)",
					workers, left, len(got), len(want))
			}
		}
	}
}
