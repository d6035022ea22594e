package pythia

import (
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/relation"
)

// paperTable is Table I of the paper.
func paperTable(t testing.TB) *relation.Table {
	t.Helper()
	tab, err := relation.ReadCSVString("D", `Player,Team,FG%,3FG%,fouls,apps
Carter,LA,56,47,4,5
Smith,SF,55,30,4,7
Carter,SF,50,51,3,3
`)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// paperMetadata supplies the ground-truth metadata for Table I.
func paperMetadata(t testing.TB, tab *relation.Table) *Metadata {
	t.Helper()
	md, err := WithPairs(tab, []model.Pair{
		{AttrA: "FG%", AttrB: "3FG%", Label: "shooting", Score: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return md
}

func TestNegOp(t *testing.T) {
	cases := map[string]string{">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "<>", "<>": "="}
	for op, want := range cases {
		if got := NegOp(op); got != want {
			t.Errorf("NegOp(%s) = %s, want %s", op, got, want)
		}
	}
}

func TestAttrEvidenceQueryMatchesPaperQ1(t *testing.T) {
	q := attrEvidenceQuery("D", []string{"Player", "Team"}, "FG%", "3FG%", ">", Contradictory, 0)
	// Must include all q1 ingredients.
	for _, want := range []string{
		"b1.Player <> b2.Player",
		"b1.Team <> b2.Team",
		`b1.FG% > b2.FG%`,
		`b1."3FG%" < b2."3FG%"`,
	} {
		if !strings.Contains(q, want) {
			t.Errorf("query %q missing %q", q, want)
		}
	}
}

func TestRowEvidenceQueryMatchesPaperQ2(t *testing.T) {
	q := rowEvidenceQuery("D", []string{"Player"}, []string{"Team"}, "fouls", "=", Contradictory, 0)
	for _, want := range []string{"b1.Player = b2.Player", "b1.fouls <> b2.fouls"} {
		if !strings.Contains(q, want) {
			t.Errorf("query %q missing %q", q, want)
		}
	}
}

func TestGenerateAttributeExamples(t *testing.T) {
	tab := paperTable(t)
	g := NewGenerator(tab, paperMetadata(t, tab))
	exs, err := g.Generate(Options{
		Structures: []Structure{AttributeAmb},
		Matches:    []Match{Uniform},
		Ops:        []string{">"},
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(exs) == 0 {
		t.Fatal("no attribute examples generated")
	}
	for _, ex := range exs {
		if ex.Structure != AttributeAmb || ex.Match != Uniform {
			t.Errorf("wrong example classification: %+v", ex)
		}
		if ex.Label != "shooting" || !strings.Contains(ex.Text, "shooting") {
			t.Errorf("label not used in text: %q", ex.Text)
		}
		if len(ex.Evidence) != 8 {
			t.Errorf("evidence cells = %d, want 8 (2 subjects x 2 keys + 4 values)", len(ex.Evidence))
		}
		if ex.Query == "" || ex.Dataset != "D" {
			t.Errorf("example incomplete: %+v", ex)
		}
	}
}

func TestContradictoryAttributeEvidenceDisagrees(t *testing.T) {
	tab := paperTable(t)
	g := NewGenerator(tab, paperMetadata(t, tab))
	exs, err := g.Generate(Options{
		Structures: []Structure{AttributeAmb},
		Matches:    []Match{Contradictory},
		Ops:        []string{">"},
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Table I has no contradictory cross-team pair for FG%/3FG%:
	// Carter LA beats Smith SF on both attributes.
	if len(exs) != 0 {
		t.Errorf("expected no contradictory attribute examples on Table I, got %d: %q", len(exs), exs[0].Text)
	}
}

func TestGenerateRowExamples(t *testing.T) {
	tab := paperTable(t)
	g := NewGenerator(tab, paperMetadata(t, tab))
	exs, err := g.Generate(Options{
		Structures: []Structure{RowAmb},
		Matches:    []Match{Contradictory},
		Ops:        []string{"="},
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(exs) == 0 {
		t.Fatal("no row examples generated")
	}
	// "Carter has {3,4} fouls" must be among them (the paper's s2 family).
	found := false
	for _, ex := range exs {
		if ex.Structure != RowAmb {
			t.Errorf("wrong structure: %+v", ex)
		}
		if strings.Contains(ex.Text, "Carter") && strings.Contains(ex.Text, "fouls") {
			found = true
		}
		if inKey(ex.KeyAttrs, "Team") {
			t.Errorf("row example uses full key: %+v", ex)
		}
	}
	if !found {
		t.Errorf("missing Carter fouls example: %+v", exs)
	}
}

func TestUniformRowNeedsEqualValues(t *testing.T) {
	tab := paperTable(t)
	g := NewGenerator(tab, paperMetadata(t, tab))
	exs, err := g.Generate(Options{
		Structures: []Structure{RowAmb},
		Matches:    []Match{Uniform},
		Ops:        []string{"="},
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Carter has fouls 4 (LA) and 3 (SF): never uniform. No attribute has
	// equal values across Carter's two rows except none -> expect none.
	for _, ex := range exs {
		// Evidence values (after the 1 subject cell) must be equal.
		if len(ex.Evidence) >= 3 && ex.Evidence[1].Value != ex.Evidence[2].Value {
			t.Errorf("uniform example with unequal evidence: %+v", ex)
		}
	}
}

func TestGenerateFullExamples(t *testing.T) {
	tab := paperTable(t)
	g := NewGenerator(tab, paperMetadata(t, tab))
	exs, err := g.Generate(Options{
		Structures: []Structure{FullAmb},
		Matches:    []Match{Contradictory},
		Ops:        []string{"="},
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(exs) == 0 {
		t.Fatal("no full-ambiguity examples generated")
	}
	for _, ex := range exs {
		if ex.Structure != FullAmb || ex.Label != "shooting" {
			t.Errorf("bad full example: %+v", ex)
		}
		if len(ex.KeyAttrs) != 1 {
			t.Errorf("full example must use a strict key subset: %+v", ex.KeyAttrs)
		}
	}
}

func TestTemplateModeProducesPaperSentence(t *testing.T) {
	tab := paperTable(t)
	g := NewGenerator(tab, paperMetadata(t, tab))
	exs, err := g.Generate(Options{
		Structures: []Structure{AttributeAmb},
		Matches:    []Match{Uniform},
		Ops:        []string{">"},
		Mode:       Templates,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	found := false
	for _, ex := range exs {
		if ex.Text == "Carter LA has higher shooting than Smith SF" {
			found = true
		}
	}
	if !found {
		texts := make([]string, len(exs))
		for i, ex := range exs {
			texts[i] = ex.Text
		}
		t.Errorf("template mode missing the paper's sentence; got %v", texts)
	}
}

func TestTemplateRowMode(t *testing.T) {
	tab := paperTable(t)
	g := NewGenerator(tab, paperMetadata(t, tab))
	exs, err := g.Generate(Options{
		Structures: []Structure{RowAmb},
		Matches:    []Match{Contradictory},
		Ops:        []string{">"},
		Mode:       Templates,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// q2'' family: "Carter has more than 3 fouls".
	found := false
	for _, ex := range exs {
		if strings.Contains(ex.Text, "Carter has more than 3 fouls") {
			found = true
		}
	}
	if !found {
		texts := make([]string, len(exs))
		for i, ex := range exs {
			texts[i] = ex.Text
		}
		t.Errorf("missing 'Carter has more than 3 fouls'; got %v", texts)
	}
}

func TestQuestionsInterleaved(t *testing.T) {
	d := data.MustLoad("Basket")
	md, err := WithPairs(d.Table, []model.Pair{{AttrA: "FieldGoalPct", AttrB: "ThreePointPct", Label: "shooting"}})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(d.Table, md)
	exs, err := g.Generate(Options{Questions: true, Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	hasQ, hasS := false, false
	for _, ex := range exs {
		if ex.IsQuestion {
			hasQ = true
			if !strings.HasSuffix(ex.Text, "?") {
				t.Errorf("question without question mark: %q", ex.Text)
			}
		} else {
			hasS = true
		}
	}
	if !hasQ || !hasS {
		t.Errorf("questions=%v statements=%v, want both", hasQ, hasS)
	}
}

func TestNotAmbiguousExamples(t *testing.T) {
	d := data.MustLoad("Basket")
	md, err := WithPairs(d.Table, []model.Pair{{AttrA: "FieldGoalPct", AttrB: "ThreePointPct", Label: "shooting"}})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(d.Table, md)
	exs, err := g.NotAmbiguous(Options{Seed: 3})
	if err != nil {
		t.Fatalf("NotAmbiguous: %v", err)
	}
	if len(exs) == 0 {
		t.Fatal("no control examples")
	}
	for _, ex := range exs {
		if ex.Structure != NoAmb || ex.Structure.Ambiguous() {
			t.Errorf("control example misclassified: %+v", ex)
		}
		// Subject uses the FULL key (both Player and Team).
		if len(ex.KeyAttrs) != 2 {
			t.Errorf("control example under-identifies subject: %v", ex.KeyAttrs)
		}
		// Never about an ambiguous attribute.
		if ex.Attrs[0] == "FieldGoalPct" || ex.Attrs[0] == "ThreePointPct" {
			t.Errorf("control example about ambiguous attribute: %+v", ex)
		}
	}
}

func TestGenerateOnAllDatasets(t *testing.T) {
	// Every embedded dataset must generate without error given its ground
	// truth metadata; composite-key tables must yield row examples.
	for _, name := range data.Names() {
		d := data.MustLoad(name)
		var pairs []model.Pair
		for _, gt := range d.GroundTruthPairs() {
			pairs = append(pairs, model.Pair{AttrA: gt.AttrA, AttrB: gt.AttrB, Label: gt.Labels[0]})
		}
		md, err := WithPairs(d.Table, pairs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := NewGenerator(d.Table, md)
		exs, err := g.Generate(Options{Seed: 4})
		if err != nil {
			t.Fatalf("%s: Generate: %v", name, err)
		}
		if len(exs) == 0 && (len(pairs) > 0 || len(md.Profile.PrimaryKey) >= 2) {
			t.Errorf("%s: no examples generated", name)
		}
		if len(md.Profile.PrimaryKey) >= 2 {
			hasRow := false
			for _, ex := range exs {
				if ex.Structure == RowAmb {
					hasRow = true
				}
			}
			if !hasRow {
				t.Errorf("%s: composite key but no row-ambiguity examples", name)
			}
		}
	}
}

func TestDiscoverIntegration(t *testing.T) {
	// Discover with a trivial rule-based predictor.
	tab := paperTable(t)
	md, err := Discover(tab, stubPredictor{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(md.Pairs) != 1 || md.Pairs[0].Label != "shooting" {
		t.Errorf("pairs = %+v", md.Pairs)
	}
	if len(md.Profile.PrimaryKey) != 2 {
		t.Errorf("primary key = %v", md.Profile.PrimaryKey)
	}
	// Discover fills the future-work profiling signals.
	p := md.Pairs[0]
	if p.Correlation == 0 {
		t.Errorf("correlation not filled: %+v", p)
	}
	if p.ValueOverlap < 0 || p.ValueOverlap > 1 {
		t.Errorf("overlap out of range: %+v", p)
	}
}

// stubPredictor marks exactly the FG%/3FG% pair.
type stubPredictor struct{}

func (stubPredictor) Name() string { return "stub" }
func (stubPredictor) PredictPair(_ []string, _ [][]string, a, b string) (string, float64, bool) {
	if (a == "FG%" && b == "3FG%") || (a == "3FG%" && b == "FG%") {
		return "shooting", 1, true
	}
	return "", 0, false
}

func TestExamplesDedupedByText(t *testing.T) {
	tab := paperTable(t)
	g := NewGenerator(tab, paperMetadata(t, tab))
	exs, err := g.Generate(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ex := range exs {
		if seen[ex.Text] {
			t.Errorf("duplicate text: %q", ex.Text)
		}
		seen[ex.Text] = true
	}
}
