package artefacts_test

import (
	"errors"
	"testing"

	"cloudskulk/internal/artefacts"
	"cloudskulk/internal/experiments"
	"cloudskulk/internal/hv"
)

// TestUnknownBackendIsAnError: every row that builds on a backend rejects
// an unregistered name with hv.ErrUnknownBackend, returned rather than
// panicked. Table I reads no backend and still renders.
func TestUnknownBackendIsAnError(t *testing.T) {
	o := experiments.TestOptions()
	o.Backend = "no-such"
	for _, a := range artefacts.All {
		t.Run(a.Name, func(t *testing.T) {
			_, err := a.Run(o, true)
			if a.Name == "table1" || a.Name == "table1full" {
				if err != nil {
					t.Fatalf("err = %v, want none: Table I reads no backend", err)
				}
				return
			}
			if !errors.Is(err, hv.ErrUnknownBackend) {
				t.Fatalf("err = %v, want hv.ErrUnknownBackend", err)
			}
		})
	}
}
