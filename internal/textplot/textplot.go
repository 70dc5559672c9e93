// Package textplot renders simple ASCII plots for terminal output; the
// experiments use it to draw the paper's Figure 3 (predicted vs actual CPI
// scatter with the unity line).
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Scatter renders an x/y scatter plot of the given width/height in
// character cells. Density is shown with the ramp " .:oO@"; cells on the
// x==y diagonal with no points show the unity line as '/'.
func Scatter(x, y []float64, width, height int, xlabel, ylabel string) string {
	if len(x) != len(y) || len(x) == 0 || width < 8 || height < 4 {
		return "(no data)\n"
	}
	lo, hi := minMax(append(append([]float64{}, x...), y...))
	if hi == lo {
		hi = lo + 1
	}
	// A small margin keeps edge points visible.
	span := hi - lo
	lo -= 0.02 * span
	hi += 0.02 * span

	grid := make([][]int, height)
	for r := range grid {
		grid[r] = make([]int, width)
	}
	cellX := func(v float64) int {
		c := int(float64(width) * (v - lo) / (hi - lo))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	cellY := func(v float64) int {
		r := int(float64(height) * (hi - v) / (hi - lo))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	for i := range x {
		grid[cellY(y[i])][cellX(x[i])]++
	}

	ramp := []byte(" .:oO@")
	maxCount := 0
	for _, row := range grid {
		for _, c := range row {
			if c > maxCount {
				maxCount = c
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (vertical) vs %s (horizontal); '/' is the unity line\n", ylabel, xlabel)
	for r := 0; r < height; r++ {
		// Left axis label: the y value at this row's center.
		yv := hi - (float64(r)+0.5)*(hi-lo)/float64(height)
		fmt.Fprintf(&b, "%7.2f |", yv)
		for c := 0; c < width; c++ {
			count := grid[r][c]
			if count == 0 {
				// Unity line: where this cell's x range intersects y.
				xv := lo + (float64(c)+0.5)*(hi-lo)/float64(width)
				if cellY(xv) == r {
					b.WriteByte('/')
				} else {
					b.WriteByte(' ')
				}
				continue
			}
			idx := 1 + count*(len(ramp)-2)/maxCount
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "        +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "        %-10.2f%s%10.2f\n", lo, strings.Repeat(" ", max(0, width-20)), hi)
	return b.String()
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
