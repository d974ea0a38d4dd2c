package optimizer

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ShipEWMA is the persisted measured-ship feedback state: an exponentially
// weighted moving average of the per-task RPC ship time observed by real
// runs (RPCBackend.MeasuredShipNS), stored next to the cost-model cache.
// Subsequent plans price remote shards with this measured figure instead of
// the model's pipe-recorded RPCShipNS (see RPCProfileFrom).
type ShipEWMA struct {
	// ShipNS is the averaged per-task ship time in nanoseconds.
	ShipNS float64 `json:"ship_ns"`
	// Samples counts the task observations folded in, capped at
	// shipEWMASampleCap so the average stays adaptive.
	Samples int64 `json:"samples"`
}

// shipEWMASampleCap bounds the effective history: once this many samples
// have been folded in, new observations keep at least 1/cap weight, so the
// average tracks drifting network conditions instead of freezing.
const shipEWMASampleCap = 1000

// ShipEWMAFile returns the path of the ship-EWMA file in dir, alongside the
// cost-model cache written by CostModel.Save.
func ShipEWMAFile(dir string) string {
	return filepath.Join(dir, "hpa-ship-ewma.json")
}

// LoadShipEWMA reads a persisted ship EWMA. A missing file is an error;
// callers treat any error as "no measured data yet".
func LoadShipEWMA(path string) (ShipEWMA, error) {
	var e ShipEWMA
	data, err := os.ReadFile(path)
	if err != nil {
		return e, err
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return e, fmt.Errorf("optimizer: parse %s: %w", path, err)
	}
	if e.Samples < 0 || e.ShipNS < 0 {
		return ShipEWMA{}, fmt.Errorf("optimizer: %s: negative ship EWMA fields", path)
	}
	return e, nil
}

// Observe folds a run's measured per-task ship time (averaged over n tasks)
// into the EWMA, weighting by sample counts. Non-positive inputs are
// ignored.
func (e *ShipEWMA) Observe(shipNS float64, n int64) {
	if shipNS <= 0 || n <= 0 {
		return
	}
	if e.Samples <= 0 || e.ShipNS <= 0 {
		e.ShipNS, e.Samples = shipNS, n
	} else {
		total := e.Samples + n
		e.ShipNS += (shipNS - e.ShipNS) * float64(n) / float64(total)
		e.Samples = total
	}
	if e.Samples > shipEWMASampleCap {
		e.Samples = shipEWMASampleCap
	}
}

// Save atomically writes the EWMA to path (write temp + rename).
func (e ShipEWMA) Save(path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
