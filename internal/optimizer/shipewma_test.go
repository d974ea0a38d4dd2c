package optimizer

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestShipEWMAObserve(t *testing.T) {
	var e ShipEWMA
	e.Observe(100, 10)
	if e.ShipNS != 100 || e.Samples != 10 {
		t.Fatalf("first observation: %+v", e)
	}
	// Sample-weighted blend: (100×10 + 200×10) / 20 = 150.
	e.Observe(200, 10)
	if math.Abs(e.ShipNS-150) > 1e-9 || e.Samples != 20 {
		t.Fatalf("blended observation: %+v", e)
	}
	// Garbage in, no change out.
	before := e
	e.Observe(-5, 10)
	e.Observe(100, 0)
	if e != before {
		t.Fatalf("non-positive inputs mutated the EWMA: %+v", e)
	}
	// The sample cap keeps the average adaptive: after capping, a new
	// observation still moves the mean by at least 1/(cap+n) of the gap.
	e.Observe(100, 10_000)
	if e.Samples != 1000 {
		t.Fatalf("sample cap not applied: %+v", e)
	}
	prev := e.ShipNS
	e.Observe(prev*10, 100)
	if e.ShipNS <= prev {
		t.Fatalf("capped EWMA stopped adapting: %v -> %v", prev, e.ShipNS)
	}
}

func TestShipEWMASaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := ShipEWMAFile(dir)
	if filepath.Dir(path) != dir || !strings.HasSuffix(path, "hpa-ship-ewma.json") {
		t.Fatalf("ShipEWMAFile(%q) = %q", dir, path)
	}
	if _, err := LoadShipEWMA(path); err == nil {
		t.Fatal("loading a missing file did not error")
	}
	want := ShipEWMA{ShipNS: 48_000_000, Samples: 18}
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadShipEWMA(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	// Corrupt and negative files are rejected.
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShipEWMA(path); err == nil {
		t.Fatal("corrupt file loaded")
	}
	if err := os.WriteFile(path, []byte(`{"ship_ns": -1, "samples": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShipEWMA(path); err == nil {
		t.Fatal("negative fields loaded")
	}
}

// TestRPCProfileFrom: the measured-ship feedback loop — a persisted EWMA
// reprices the profile and relabels Explain's ship source; no file, or a
// deleted one, keeps the calibrated loopback bound.
func TestRPCProfileFrom(t *testing.T) {
	m := &CostModel{RPCShipNS: 50_000}
	dir := t.TempDir()

	bp := RPCProfileFrom(3, m, dir) // nothing persisted yet
	if bp.ShipNS != 50_000 || bp.ShipSource != "loopback-bound" {
		t.Fatalf("without EWMA: %+v", bp)
	}
	if !strings.Contains(bp.String(), "ship=loopback-bound") {
		t.Errorf("String() lacks ship source: %s", bp)
	}

	if err := (ShipEWMA{ShipNS: 2_000_000, Samples: 12}).Save(ShipEWMAFile(dir)); err != nil {
		t.Fatal(err)
	}
	bp = RPCProfileFrom(3, m, dir)
	if bp.ShipNS != 2_000_000 || bp.ShipSource != "measured" {
		t.Fatalf("with EWMA: %+v", bp)
	}
	if !strings.Contains(bp.String(), "ship=measured") {
		t.Errorf("String() lacks measured label: %s", bp)
	}

	// Deleting the file re-prices with the loopback bound.
	if err := os.Remove(ShipEWMAFile(dir)); err != nil {
		t.Fatal(err)
	}
	bp = RPCProfileFrom(3, m, dir)
	if bp.ShipNS != 50_000 || bp.ShipSource != "loopback-bound" {
		t.Fatalf("after deleting the EWMA: %+v", bp)
	}

	// Local profiles stay unlabeled.
	if s := LocalProfile().String(); s != "local" {
		t.Errorf("LocalProfile().String() = %q", s)
	}
}
