package harness

import (
	"math"
	"slices"
	"testing"

	prometheus "repro"
	"repro/internal/workload"
)

func TestHarmonicMean(t *testing.T) {
	got := HarmonicMean([]float64{2, 4})
	if math.Abs(got-8.0/3.0) > 1e-12 {
		t.Errorf("HarmonicMean(2,4) = %f, want 8/3", got)
	}
	if HarmonicMean(nil) != 0 || HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("HarmonicMean degenerate cases wrong")
	}
}

func TestRegistryComplete(t *testing.T) {
	// All eight Table 2 benchmarks must be registered.
	want := []string{"barneshut", "blackscholes", "dedup", "freqmine",
		"histogram", "kmeans", "reverse_index", "word_count"}
	names := AppNames()
	if len(names) != len(want) {
		t.Fatalf("registry has %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("registry[%d] = %s, want %s", i, names[i], n)
		}
	}
}

// TestInstanceRunnersWork loads the fastest app at size S and exercises all
// runner hooks once — an integration smoke of the registry plumbing.
func TestInstanceRunnersWork(t *testing.T) {
	app, ok := AppByName("histogram")
	if !ok {
		t.Fatal("histogram not registered")
	}
	inst := app.Load(workload.Small)
	inst.Seq()
	inst.CP(2)
	if st := inst.SS(2); st.Epochs == 0 {
		t.Error("SS run recorded no epochs")
	}
	if st := inst.SS(2, prometheus.WithPolicy(prometheus.LeastLoaded)); st.Epochs == 0 {
		t.Error("SS run with options recorded no epochs")
	}
	events, st := inst.SSTraced(2)
	if st.Epochs == 0 {
		t.Error("SSTraced run recorded no epochs")
	}
	if !slices.ContainsFunc(events, func(e prometheus.TraceEvent) bool { return e.Kind == prometheus.TraceExec }) {
		t.Errorf("SSTraced returned %d events, none an executed operation", len(events))
	}
}

func TestKmeansVariantRegistered(t *testing.T) {
	app, _ := AppByName("kmeans")
	inst := app.Load(workload.Small)
	naive, ok := inst.Variants["naive"]
	if !ok {
		t.Fatal("kmeans naive variant missing")
	}
	if st := naive(2); st.Epochs == 0 {
		t.Error("naive variant recorded no epochs")
	}
}
