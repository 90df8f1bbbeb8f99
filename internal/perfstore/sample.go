package perfstore

import (
	"fmt"
	"math"
	"time"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// Sample is one live telemetry observation: under configuration Config and
// observed resource conditions Resources, the application achieved
// Observed. Monitors emit one per monitoring round; the avis server emits
// one per completed request sequence.
type Sample struct {
	Config    spec.Config
	Resources resource.Vector
	Observed  spec.Metrics
	// At is the virtual (or wall) time the observation completed; ingest
	// order is arrival order, At is carried for diagnostics.
	At time.Duration
	// Source names the emitting component ("monitor", "avis-server", ...).
	Source string
}

// validate rejects structurally unusable samples before they reach the
// filter: unknown configs, unknown metrics, non-finite values.
func (s *Sample) validate(app *spec.App) error {
	if err := app.ValidateConfig(s.Config); err != nil {
		return err
	}
	if len(s.Observed) == 0 {
		return fmt.Errorf("perfstore: sample has no metrics")
	}
	for name, v := range s.Observed {
		if app.Metric(name) == nil {
			return fmt.Errorf("perfstore: unknown metric %q", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("perfstore: non-finite value for metric %q", name)
		}
	}
	for _, v := range s.Resources {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("perfstore: non-finite resource value")
		}
	}
	return nil
}
