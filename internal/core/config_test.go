package core

import "testing"

// TestConfigValidationMatrix covers every policy/permission combination
// against the validation rules: none of them is a pairing rule — the
// requested Policy is ignored, placement is LeastLoaded exactly when
// Stealing is on, and Recursive composes with either placement. Sequential
// debug mode runs the same configurations inline.
func TestConfigValidationMatrix(t *testing.T) {
	cases := []struct {
		name      string
		policy    SchedPolicy
		recursive bool
		stealing  bool
	}{
		{"static", StaticMod, false, false},
		{"least-loaded", LeastLoaded, false, false},
		{"static+steal", StaticMod, false, true},
		{"least-loaded+steal", LeastLoaded, false, true},
		{"recursive+static", StaticMod, true, false},
		{"recursive+least-loaded", LeastLoaded, true, false},
		{"recursive+static+steal", StaticMod, true, true},
		{"recursive+least-loaded+steal", LeastLoaded, true, true},
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
				rt := New(cfg)
				if got := rt.Config().Policy; (got == LeastLoaded) != tc.stealing {
					t.Errorf("Stealing=%v runs policy %d", tc.stealing, got)
				}
				// Every configuration must actually execute work.
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
