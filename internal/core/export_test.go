package core

import (
	"repro/internal/branch"
	"repro/internal/mem"
)

// WarmState is the predictor and cache state the last run on b left behind.
func (b *Buffers) WarmState() (*branch.PredictorState, mem.HierState) {
	return b.pred.State(), b.hier.State()
}
