package pythia

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/textgen"
)

// marshalLine is the reference encoding LineEncoder must reproduce: what
// json.Encoder.Encode writes for ex.
func marshalLine(t testing.TB, ex Example) []byte {
	t.Helper()
	b, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// fuzzExample builds an Example from fuzz arguments. shape picks, two bits
// per slice field, nil, empty, one or two elements for Attrs, KeyAttrs and
// Evidence, so nil-vs-empty and separators are both covered.
func fuzzExample(dataset, query, text, label, op, attr, value string, question bool, structure, match, shape uint8) Example {
	strs := func(bits uint8, a, b string) []string {
		switch bits & 3 {
		case 0:
			return nil
		case 1:
			return []string{}
		case 2:
			return []string{a}
		}
		return []string{a, b}
	}
	var ev []textgen.Cell
	switch (shape >> 4) & 3 {
	case 1:
		ev = []textgen.Cell{}
	case 2:
		ev = []textgen.Cell{{Attr: attr, Value: value}}
	case 3:
		ev = []textgen.Cell{{Attr: attr, Value: value}, {Attr: label, Value: text}}
	}
	return Example{
		Dataset: dataset, Query: query, Text: text, IsQuestion: question,
		Structure: Structure(structure), Match: Match(match), Label: label,
		Attrs: strs(shape, attr, label), KeyAttrs: strs(shape>>2, value, op),
		Evidence: ev, Op: op,
	}
}

// FuzzLineEncoder: for arbitrary bytes in every string field (invalid
// UTF-8, control bytes, <>&, U+2028/9) and every nil/empty/filled slice
// shape, Append must equal json.Marshal plus a newline — on a cold encoder
// and again on the memoized head.
func FuzzLineEncoder(f *testing.F) {
	tab := paperTable(f)
	g := NewGenerator(tab, paperMetadata(f, tab))
	for _, mode := range []Mode{TextGeneration, Templates} {
		exs, err := g.Generate(Options{Mode: mode, Seed: 1, Questions: true})
		if err != nil {
			f.Fatal(err)
		}
		for i, ex := range exs {
			attr, value := "", ""
			if len(ex.Evidence) > 0 {
				attr, value = ex.Evidence[0].Attr, ex.Evidence[0].Value
			}
			f.Add(ex.Dataset, ex.Query, ex.Text, ex.Label, ex.Op, attr, value,
				ex.IsQuestion, uint8(ex.Structure), uint8(ex.Match), uint8(i))
		}
	}
	f.Add("", "", "", "", "", "", "", false, uint8(0), uint8(0), uint8(0))
	f.Add("<D&>", "SELECT '\x00\x1f\x7f' \"q\"\\", "bad \xff\xfe utf8 \xe2\x80\xa8\xe2\x80\xa9 end",
		"\b\f\n\r\t", "<>", "\xc3", "\xe2\x80", true, uint8(255), uint8(7), uint8(0xff))

	f.Fuzz(func(t *testing.T, dataset, query, text, label, op, attr, value string, question bool, structure, match, shape uint8) {
		ex := fuzzExample(dataset, query, text, label, op, attr, value, question, structure, match, shape)
		want := marshalLine(t, ex)
		var enc LineEncoder
		got := enc.Append(nil, ex)
		if !bytes.Equal(got, want) {
			t.Fatalf("cold encoder:\n got %q\nwant %q", got, want)
		}
		got = enc.Append(got, ex)
		if !bytes.Equal(got, append(want, want...)) {
			t.Fatalf("memoized head:\n got %q\nwant %q", got[len(want):], want)
		}
	})
}

// TestLineEncoderHeadMemoInvalidation alternates Dataset and Query values
// through one encoder: every change to either field, including back to an
// earlier value and to the empty strings a fresh encoder starts from, must
// re-encode the head.
func TestLineEncoderHeadMemoInvalidation(t *testing.T) {
	base := Example{Text: "t", Attrs: []string{"a"}, Op: "="}
	var seq []Example
	for _, dq := range [][2]string{
		{"", ""}, {"A", "q1"}, {"B", "q2"}, {"A", "q1"}, {"A", "q1"},
		{"A", "q2"}, {"B", "q2"}, {"B", "q1"}, {"", ""}, {"A<", "q&1"},
	} {
		ex := base
		ex.Dataset, ex.Query = dq[0], dq[1]
		seq = append(seq, ex)
	}
	var enc LineEncoder
	var got, want []byte
	for _, ex := range seq {
		got = enc.Append(got, ex)
		want = append(want, marshalLine(t, ex)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("after Dataset=%q Query=%q:\n got %q\nwant %q", ex.Dataset, ex.Query, got, want)
		}
	}
}

// TestLineEncoderMatchesEncoderOnGeneratedStream: a real generated stream,
// in both modes, encodes to exactly json.Encoder's bytes without
// allocating once the destination buffer is large enough.
func TestLineEncoderMatchesEncoderOnGeneratedStream(t *testing.T) {
	tab := paperTable(t)
	g := NewGenerator(tab, paperMetadata(t, tab))
	for _, mode := range []Mode{TextGeneration, Templates} {
		exs, err := g.Generate(Options{Mode: mode, Seed: 7, Questions: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(exs) == 0 {
			t.Fatalf("%s: no examples", mode)
		}
		var want bytes.Buffer
		jenc := json.NewEncoder(&want)
		var enc LineEncoder
		var got []byte
		for _, ex := range exs {
			if err := jenc.Encode(ex); err != nil {
				t.Fatal(err)
			}
			got = enc.Append(got, ex)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: encoded stream differs from json.Encoder (%d vs %d bytes)", mode, len(got), want.Len())
		}
		buf := make([]byte, 0, len(got))
		allocs := testing.AllocsPerRun(10, func() {
			buf = buf[:0]
			for _, ex := range exs {
				buf = enc.Append(buf, ex)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Append allocated %.1f times per stream into a sized buffer", mode, allocs)
		}
	}
}
