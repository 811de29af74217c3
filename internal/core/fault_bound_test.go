package core

import "testing"

// TestFaultRecordBoundRing drives 10k contained panics through a runtime
// and checks the long-runtime contract against the retention bound: fault
// MEMORY stays bounded (only the most recent records survive), the Panics
// counter still counts everything, evictions surface in DroppedFaults, and
// every set of the surviving waves keeps the same number of records.
func TestFaultRecordBoundRing(t *testing.T) {
	const (
		bound       = DefaultFaultRecordBound
		setsPerWave = 128 // one fault per set per epoch (poison drops repeats)
		kept        = bound / setsPerWave
		epochs      = 80
	)
	rt := newTestRuntime(t, stealCfg(2, neverStealThreshold))
	for ep := 0; ep < epochs; ep++ {
		rt.BeginIsolation()
		for s := 0; s < setsPerWave; s++ {
			rt.Delegate(uint64(100+s), func(int) { panic("boom") })
		}
		rt.EndIsolation()
	}
	const total = epochs * setsPerWave

	st := rt.Stats()
	if st.Panics != total {
		t.Errorf("Panics = %d, want %d", st.Panics, total)
	}
	if st.DroppedFaults != total-bound {
		t.Errorf("Stats.DroppedFaults = %d, want %d", st.DroppedFaults, total-bound)
	}
	faults := rt.Faults()
	if len(faults) != bound {
		t.Fatalf("Faults() retained %d records, want %d", len(faults), bound)
	}
	// Epoch barriers order containment across epochs, and the bound holds
	// exactly the last kept epochs' waves, so every survivor must come from
	// them even though arrival order within an epoch is racy.
	perSet := map[uint64]int{}
	for _, f := range faults {
		if f.Epoch <= epochs-kept {
			t.Errorf("retained fault from epoch %d, want only epochs after %d", f.Epoch, epochs-kept)
		}
		perSet[f.Set]++
	}
	// Grouped by set, the ring holds the same number of records for every
	// set of the surviving waves, and nothing for any other set.
	if len(perSet) != setsPerWave {
		t.Errorf("ring holds records of %d sets, want %d", len(perSet), setsPerWave)
	}
	for set, n := range perSet {
		if n != kept {
			t.Errorf("ring holds %d records of set %d, want %d", n, set, kept)
		}
	}
}
