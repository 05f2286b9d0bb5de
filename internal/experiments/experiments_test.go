package experiments

import (
	"strings"
	"testing"
)

func TestTable1CoversSixteenCells(t *testing.T) {
	r, err := Table1(1, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["empty_cells"] != 0 {
		t.Fatalf("empty cells: %v", r.Values["empty_cells"])
	}
	if r.Values["succeeded"] < r.Values["capabilities"]*0.75 {
		t.Fatalf("too many declines: %+v\n%s", r.Values, r.Text)
	}
	for _, want := range []string{"DESCRIPTIVE", "DIAGNOSTIC", "PREDICTIVE", "PRESCRIPTIVE", "pue-kpi"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestFig1AllPillarsContribute(t *testing.T) {
	r, err := Fig1(1, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, pillar := range []string{"building-infrastructure", "system-hardware", "system-software"} {
		if r.Values["series_"+pillar] == 0 {
			t.Fatalf("pillar %s contributes no series:\n%s", pillar, r.Text)
		}
	}
	if r.Values["jobs"] == 0 {
		t.Fatal("applications pillar has no job records")
	}
}

func TestFig2StagedPipeline(t *testing.T) {
	r, err := Fig2(1, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["stages"] != 4 {
		t.Fatalf("stages = %v", r.Values["stages"])
	}
	for _, typ := range []string{"descriptive", "diagnostic", "predictive", "prescriptive"} {
		if r.Values["us_"+typ] < 0 {
			t.Fatalf("stage %s has no timing", typ)
		}
		if !strings.Contains(r.Text, typ) {
			t.Fatalf("report missing stage %s", typ)
		}
	}
}

func TestFig3ENIImprovesPUE(t *testing.T) {
	r, err := Fig3ENI(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["eni_pue"] >= r.Values["baseline_pue"] {
		t.Fatalf("ENI control did not improve PUE: %v vs %v\n%s",
			r.Values["eni_pue"], r.Values["baseline_pue"], r.Text)
	}
}

func TestFig3GEOPMSavesEnergy(t *testing.T) {
	r, err := Fig3GEOPM(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["saving_pct"] <= 0 {
		t.Fatalf("no energy saving:\n%s", r.Text)
	}
	if r.Values["stretch_pct"] > 20 {
		t.Fatalf("runtime stretch too large: %v%%", r.Values["stretch_pct"])
	}
}

func TestFig3PowerstackHoldsBudget(t *testing.T) {
	r, err := Fig3Powerstack(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The cap must bite: capped peak clearly below uncapped peak.
	if r.Values["capped_peak_w"] >= r.Values["baseline_peak_w"] {
		t.Fatalf("budget did not reduce peak:\n%s", r.Text)
	}
}

func TestSurveyReproducesPaper(t *testing.T) {
	r, err := Survey()
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["single_pillar"] <= r.Values["multi_pillar"] {
		t.Fatalf("survey shape wrong:\n%s", r.Text)
	}
	if r.Values["works"] < 50 {
		t.Fatalf("works = %v", r.Values["works"])
	}
}

func TestLLNL(t *testing.T) {
	r, err := LLNL(5, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["threshold_w"] <= 0 {
		t.Fatalf("no threshold:\n%s", r.Text)
	}
}

func TestPUEControlModesOrdering(t *testing.T) {
	r, err := PUEControlModes(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	reactive := r.Values["pue_reactive-chiller"]
	static := r.Values["pue_static-auto"]
	proactive := r.Values["pue_proactive-oda"]
	if !(proactive <= static && static < reactive) {
		t.Fatalf("PUE ordering not reproduced: proactive %.4f, static %.4f, reactive %.4f",
			proactive, static, reactive)
	}
}

func TestSchedulerAblation(t *testing.T) {
	r, err := SchedulerAblation(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["wait_easy"] > r.Values["wait_fcfs"] {
		t.Fatalf("EASY should not lose to FCFS:\n%s", r.Text)
	}
}

func TestTSDBAblation(t *testing.T) {
	r, err := TSDBAblation(5, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["ratio"] <= 2 {
		t.Fatalf("compression ratio = %v", r.Values["ratio"])
	}
	// Pinned: the read-only window count must match what rewriting the node
	// power series as 5-min means used to leave behind.
	if r.Values["samples"] != 25560 || r.Values["after_downsample"] != 23264 {
		t.Fatalf("downsampling ablation = %v -> %v samples, want 25560 -> 23264",
			r.Values["samples"], r.Values["after_downsample"])
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, n := range Names() {
		if n == "table1" || n == "pue" || n == "llnl" || n == "sched" {
			continue // exercised above; skip the slowest double-runs
		}
		if _, err := ByName(n, 3); err != nil {
			t.Fatalf("experiment %s: %v", n, err)
		}
	}
	if _, err := ByName("bogus", 1); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestAllExperimentsSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow; skipped with -short")
	}
	reports, err := All(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(Names()) {
		t.Fatalf("got %d reports, want %d", len(reports), len(Names()))
	}
	for i, r := range reports {
		if r.Name != Names()[i] {
			t.Fatalf("report %d is %s, want %s", i, r.Name, Names()[i])
		}
		if r.Text == "" {
			t.Fatalf("report %s is empty", r.Name)
		}
	}
}
