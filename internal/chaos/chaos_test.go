package chaos

import (
	"errors"
	"testing"
	"time"
)

func TestPanicAtFiresExactlyOnce(t *testing.T) {
	in := PanicAt(7, 3)
	hook := in.Hook()
	var got []uint64
	for k := 1; k <= 5; k++ {
		func() {
			defer func() {
				if v := recover(); v != nil {
					f, ok := v.(Fault)
					if !ok {
						t.Fatalf("recovered %T, want Fault", v)
					}
					got = append(got, f.N)
				}
			}()
			hook(1, 7)
		}()
		hook(1, 9) // other sets never fire
	}
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("fired at positions %v, want [3]", got)
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in.Fired())
	}
}

func TestFaultIsComparableError(t *testing.T) {
	var err error = Fault{Set: 5, N: 2}
	if !errors.Is(err, Fault{Set: 5, N: 2}) {
		t.Fatal("errors.Is failed on identical Fault")
	}
	if errors.Is(err, Fault{Set: 5, N: 3}) {
		t.Fatal("errors.Is matched a different Fault")
	}
	want := "chaos: injected panic at op 2 of set 5"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestSeededDeterministicAndBounded(t *testing.T) {
	run := func() []uint64 {
		in := Seeded(42, 0.25)
		hook := in.Hook()
		var fired []uint64
		for n := uint64(1); n <= 400; n++ {
			func() {
				defer func() {
					if recover() != nil {
						fired = append(fired, n)
					}
				}()
				hook(1, n%8)
			}()
		}
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs fired %d vs %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// p=0.25 over 400 ops: expect ~100; anything in (20, 250) rules out a
	// broken threshold without being flaky.
	if len(a) < 20 || len(a) > 250 {
		t.Fatalf("seeded p=0.25 fired %d/400 times", len(a))
	}
	// Degenerate probabilities must not overflow or misbehave.
	if f := Seeded(1, 0); f == nil {
		t.Fatal("Seeded(1, 0) nil")
	}
	in := Seeded(9, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Seeded(_, 1) did not fire")
			}
		}()
		in.Hook()(1, 3)
	}()
}

func TestSpikeEveryPeriodAndDeterminism(t *testing.T) {
	l := SpikeEvery(3, 200*time.Millisecond)
	var delays []time.Duration
	for i := 0; i < 9; i++ {
		delays = append(delays, l.Delay(4))
	}
	for i, d := range delays {
		want := time.Duration(0)
		if (i+1)%3 == 0 {
			want = 200 * time.Millisecond
		}
		if d != want {
			t.Fatalf("op %d: delay %v, want %v", i+1, d, want)
		}
	}
	if l.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", l.Fired())
	}
	// Per-set counting: a second set has its own period phase.
	if d := l.Delay(5); d != 0 {
		t.Fatalf("first op of a fresh set spiked: %v", d)
	}
	// k<1 clamps to every op.
	if d := SpikeEvery(0, time.Millisecond).Delay(1); d != time.Millisecond {
		t.Fatalf("SpikeEvery(0) op 1: %v, want 1ms", d)
	}
}

func TestSeededLatencyDeterministic(t *testing.T) {
	run := func() []int {
		l := SeededLatency(7, 0.3, time.Millisecond)
		var hits []int
		for i := 0; i < 200; i++ {
			if l.Delay(uint64(i%4)) > 0 {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs spiked %d vs %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) < 20 || len(a) > 120 {
		t.Fatalf("p=0.3 over 200 ops spiked %d times", len(a))
	}
}

func TestErrorsInjector(t *testing.T) {
	e := ErrorAt(9, 2)
	if err := e.Err(9); err != nil {
		t.Fatalf("op 1 errored: %v", err)
	}
	err := e.Err(9)
	if err == nil {
		t.Fatal("op 2 did not error")
	}
	if !errors.Is(err, Injected{Set: 9, N: 2}) {
		t.Fatalf("error %v is not Injected{9,2}", err)
	}
	want := "chaos: injected error at op 2 of set 9"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
	if err := e.Err(9); err != nil {
		t.Fatalf("op 3 errored: %v", err)
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", e.Fired())
	}

	// Seeded errors: deterministic across runs, transient across positions
	// (the retry contract — a fresh position rolls a fresh coin).
	run := func() uint64 {
		se := SeededErrors(11, 0.05)
		for i := 0; i < 1000; i++ {
			se.Err(uint64(i % 8))
		}
		return se.Fired()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("seeded error runs fired %d vs %d", a, b)
	}
	if a == 0 || a > 200 {
		t.Fatalf("p=0.05 over 1000 ops fired %d times", a)
	}
}

func TestResetClearsPositions(t *testing.T) {
	in := PanicAt(1, 2)
	hook := in.Hook()
	hook(0, 1) // position 1: no fire
	in.Reset()
	hook(0, 1) // position 1 again after reset: still no fire
	fired := false
	func() {
		defer func() { fired = recover() != nil }()
		hook(0, 1) // position 2 after reset: fires
	}()
	if !fired {
		t.Fatal("reset did not restart per-set position counting")
	}
}
