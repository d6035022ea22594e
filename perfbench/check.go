package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/pythia"
	"repro/internal/stream"
)

// checkNDJSON verifies one table's example stream: every line parses as an
// example, no text repeats, and every example names the table. It returns
// the number of examples and the stream's SHA-256.
func checkNDJSON(r io.Reader, table string) (int, string, error) {
	h := sha256.New()
	br := bufio.NewReader(io.TeeReader(r, h))
	seen := map[string]bool{}
	n := 0
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return n, hex.EncodeToString(h.Sum(nil)), nil
		}
		if err == io.EOF {
			return n, "", fmt.Errorf("%s: example %d: unterminated line", table, n+1)
		}
		if err != nil {
			return n, "", err
		}
		var ex pythia.Example
		if err := json.Unmarshal(line, &ex); err != nil {
			return n, "", fmt.Errorf("%s: example %d: %w", table, n+1, err)
		}
		if ex.Dataset != table {
			return n, "", fmt.Errorf("%s: example %d names dataset %q", table, n+1, ex.Dataset)
		}
		if seen[ex.Text] {
			return n, "", fmt.Errorf("%s: example %d repeats text %q", table, n+1, ex.Text)
		}
		seen[ex.Text] = true
		n++
	}
}

// digestNDJSON returns the line count and SHA-256 of a stream without
// parsing it: a stream with the digest of one checkNDJSON passed holds the
// same examples.
func digestNDJSON(r io.Reader) (int, string, error) {
	h := sha256.New()
	buf := make([]byte, 64<<10)
	n := 0
	last := byte('\n')
	for {
		k, err := r.Read(buf)
		if k > 0 {
			h.Write(buf[:k])
			n += bytes.Count(buf[:k], []byte{'\n'})
			last = buf[k-1]
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, "", err
		}
	}
	if last != '\n' {
		return n, "", fmt.Errorf("unterminated last line")
	}
	return n, hex.EncodeToString(h.Sum(nil)), nil
}

// readShards reads the shards of a finished FileSink run in order with
// read, after checking each file's size against the manifest, and checks
// the example count read returns against the manifest's. It returns that
// count and the shards' bytes.
func readShards(dir string, read func(io.Reader) (int, error)) (int, int64, error) {
	m, err := stream.ReadManifest(dir)
	if err != nil {
		return 0, 0, err
	}
	if !m.Complete {
		return 0, 0, fmt.Errorf("%s: manifest is not complete", dir)
	}
	var readers []io.Reader
	var size int64
	for _, sh := range m.Shards {
		f, err := os.Open(filepath.Join(dir, sh.File))
		if err != nil {
			return 0, 0, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return 0, 0, err
		}
		if st.Size() != sh.Bytes {
			return 0, 0, fmt.Errorf("%s: %d bytes, manifest records %d", sh.File, st.Size(), sh.Bytes)
		}
		readers = append(readers, f)
		size += sh.Bytes
	}
	n, err := read(io.MultiReader(readers...))
	if err == nil && n != m.Examples {
		err = fmt.Errorf("%s: %d examples, manifest records %d", dir, n, m.Examples)
	}
	return n, size, err
}

// verify checks one pass over a table's output. A table's first pass is
// checked line by line and its digest recorded; every later pass must
// reproduce that digest exactly, which needs no parsing.
func (r *result) verify(table string, rd io.Reader) (int, error) {
	if want, ok := r.want[table]; ok {
		n, sum, err := digestNDJSON(rd)
		if err == nil && sum != want {
			err = fmt.Errorf("%s: output sha256 %s differs from its first pass's %s", table, sum, want)
		}
		return n, err
	}
	n, sum, err := checkNDJSON(rd, table)
	if err == nil {
		r.want[table] = sum
		r.out.add(table, n, sum)
	}
	return n, err
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outputs accumulates what a run produced, in a fixed order, so two runs of
// one seed can be compared by a single digest.
type outputs struct {
	h        []byte // running digest input: one line per part
	examples int
}

func (o *outputs) add(part string, examples int, sum string) {
	o.h = fmt.Appendf(o.h, "%s %d %s\n", part, examples, sum)
	o.examples += examples
}

func (o *outputs) digest() string { return digest(o.h) }

// reference is the example count and digest a workload must produce at
// the default seed and default sizes.
type reference struct {
	Examples int    `json:"examples"`
	SHA256   string `json:"sha256"`
}

//go:embed reference.json
var referenceJSON []byte

// references maps workload names to their recorded output at defaultSeed.
func references() (map[string]reference, error) {
	var refs struct {
		Seed      int64                `json:"seed"`
		Workloads map[string]reference `json:"workloads"`
	}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if refs.Seed != defaultSeed {
		return nil, fmt.Errorf("reference.json records seed %d, want %d", refs.Seed, defaultSeed)
	}
	return refs.Workloads, nil
}

// matchReference compares a run's outputs with the recorded reference.
func matchReference(ref *reference, o *outputs) error {
	if ref == nil {
		return nil
	}
	if o.examples != ref.Examples || o.digest() != ref.SHA256 {
		return fmt.Errorf("output differs from the reference: %d examples, sha256 %s; want %d, %s",
			o.examples, o.digest(), ref.Examples, ref.SHA256)
	}
	return nil
}
