package optimizer

import "testing"

// BenchmarkCalibration measures the cost of measuring: a full Calibrate
// pass at default budgets — the dictionary and tokenizer probes plus the
// two recorded plan runs. It doubles as their bit-rot guard — the CI
// benchmark smoke step runs it once.
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := Calibrate(CalibrationOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if m.TokenizeNSPerByte <= 0 {
			b.Fatal("implausible model")
		}
	}
}
