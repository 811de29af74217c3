package core

import "testing"

// TestConfigValidationMatrix covers every policy/permission combination
// against the validation rules: Stealing needs the LeastLoaded policy, and
// that is the only pairing rule — Recursive composes with either policy,
// with or without stealing. Sequential debug mode accepts everything and
// runs inline.
func TestConfigValidationMatrix(t *testing.T) {
	cases := []struct {
		name      string
		policy    SchedPolicy
		recursive bool
		stealing  bool
		wantPanic bool
	}{
		{"static", StaticMod, false, false, false},
		{"least-loaded", LeastLoaded, false, false, false},
		{"static+steal", StaticMod, false, true, true},
		{"least-loaded+steal", LeastLoaded, false, true, false},
		{"recursive+static", StaticMod, true, false, false},
		{"recursive+least-loaded", LeastLoaded, true, false, false},
		{"recursive+static+steal", StaticMod, true, true, true},
		{"recursive+least-loaded+steal", LeastLoaded, true, true, false},
	}
	for _, tc := range cases {
		for _, sequential := range []bool{false, true} {
			name := tc.name
			if sequential {
				name += "+sequential"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{
					Delegates:  2,
					Policy:     tc.policy,
					Recursive:  tc.recursive,
					Stealing:   tc.stealing,
					Sequential: sequential,
				}
				wantPanic := tc.wantPanic && !sequential // debug mode rejects nothing
				defer func() {
					r := recover()
					if wantPanic && r == nil {
						t.Errorf("New(%+v) did not panic", cfg)
					}
					if !wantPanic && r != nil {
						t.Errorf("New(%+v) panicked: %v", cfg, r)
					}
				}()
				rt := New(cfg)
				// Valid configurations must actually execute work.
				rt.BeginIsolation()
				ran := make(chan struct{})
				rt.Delegate(1, func(int) { close(ran) })
				rt.EndIsolation()
				<-ran
				rt.Terminate()
			})
		}
	}
}

// TestRecursiveProgramShareStillRejected: the ProgramShare restriction is
// orthogonal to the stealing relaxation.
func TestRecursiveProgramShareStillRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Recursive+ProgramShare did not panic")
		}
	}()
	New(Config{Delegates: 2, Recursive: true, ProgramShare: 1, VirtualDelegates: 4}).Terminate()
}
