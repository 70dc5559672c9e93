package textplot

import (
	"strings"
	"testing"
)

func TestScatterBasic(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{0.1, 1.1, 1.9, 3.0, 4.2}
	s := Scatter(x, y, 40, 12, "actual", "predicted")
	if !strings.Contains(s, "predicted") || !strings.Contains(s, "actual") {
		t.Errorf("labels missing:\n%s", s)
	}
	if !strings.Contains(s, "/") {
		t.Errorf("unity line missing:\n%s", s)
	}
	// Data marks use the density ramp.
	if !strings.ContainsAny(s, ".:oO@") {
		t.Errorf("no data marks:\n%s", s)
	}
	if len(strings.Split(strings.TrimRight(s, "\n"), "\n")) < 12 {
		t.Errorf("plot shorter than requested height:\n%s", s)
	}
}

func TestScatterDegenerate(t *testing.T) {
	if got := Scatter(nil, nil, 40, 12, "x", "y"); got != "(no data)\n" {
		t.Errorf("empty input: %q", got)
	}
	if got := Scatter([]float64{1}, []float64{1, 2}, 40, 12, "x", "y"); got != "(no data)\n" {
		t.Errorf("mismatched input: %q", got)
	}
	if got := Scatter([]float64{1}, []float64{1}, 2, 2, "x", "y"); got != "(no data)\n" {
		t.Errorf("tiny plot: %q", got)
	}
	// Constant data must not divide by zero.
	s := Scatter([]float64{5, 5, 5}, []float64{5, 5, 5}, 30, 8, "x", "y")
	if !strings.ContainsAny(s, ".:oO@") {
		t.Errorf("constant data lost:\n%s", s)
	}
}
