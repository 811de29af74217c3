package core

import "testing"

// TestFaultRecordBoundRing drives 10k contained panics through a runtime
// and checks the long-runtime contract against the retention bound: fault
// MEMORY stays bounded (only the most recent records survive), the Panics
// counter still counts everything, evictions surface in DroppedFaults, and
// SetFaults agrees exactly with the retained ring.
func TestFaultRecordBoundRing(t *testing.T) {
	const (
		bound       = DefaultFaultRecordBound
		setsPerWave = 128 // one fault per set per epoch (poison drops repeats)
		kept        = bound / setsPerWave
		epochs      = 80
	)
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded})
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
	// SetFaults must describe exactly the retained ring: same multiset of
	// records, and nothing for evicted sets.
	var indexed int
	for set, n := range perSet {
		got := rt.SetFaults(set)
		if len(got) != n || n != kept {
			t.Errorf("SetFaults(%d) = %d records, ring holds %d, want %d", set, len(got), n, kept)
		}
		indexed += len(got)
	}
	if indexed != bound {
		t.Errorf("index holds %d records, want %d", indexed, bound)
	}
}

// TestSetFaultsIndexEviction checks SetFaults against the ring precisely
// on one set: faults accumulate across epochs, eviction pops the oldest,
// and a fully-evicted set reports nothing.
func TestSetFaultsIndexEviction(t *testing.T) {
	const bound = DefaultFaultRecordBound
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded})

	// Epoch 1: one fault on the sibling set (will be evicted), then bound+2
	// epochs of one fault each on set 7.
	rt.BeginIsolation()
	rt.Delegate(3, func(int) { panic("sibling") })
	rt.EndIsolation()
	for ep := 0; ep < bound+2; ep++ {
		rt.BeginIsolation()
		rt.Delegate(7, func(int) { panic("boom") })
		rt.EndIsolation()
	}

	if sf := rt.SetFaults(3); sf != nil {
		t.Errorf("SetFaults(3) = %v after eviction, want nil", sf)
	}
	sf := rt.SetFaults(7)
	if len(sf) != bound {
		t.Fatalf("SetFaults(7) = %d records, want %d", len(sf), bound)
	}
	for i, f := range sf {
		// Sibling fault in epoch 1, set-7 faults in epochs 2..bound+3; the
		// retained bound are epochs 4..bound+3 in containment order.
		if want := uint64(4 + i); f.Epoch != want {
			t.Errorf("SetFaults(7)[%d].Epoch = %d, want %d", i, f.Epoch, want)
		}
	}
	if d := rt.Stats().DroppedFaults; d != 3 {
		t.Errorf("Stats.DroppedFaults = %d, want 3", d)
	}
}
