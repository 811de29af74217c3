package core

import "testing"

// TestConfigValidationMatrix covers every policy/permission combination
// against the validation rules: none of them is a pairing rule — Stealing
// selects the LeastLoaded policy it needs, and Recursive composes with
// either policy, with or without stealing. Sequential debug mode runs the
// same configurations inline.
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
