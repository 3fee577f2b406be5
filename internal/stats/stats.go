// Package stats provides small statistical utilities shared by the MEMCON
// simulator: means, linear regression, and logarithmically bucketed
// histograms used for write-interval analysis.
//
// Everything operates on float64 slices and is deterministic; no global
// state is kept so the package is safe for concurrent use.
package stats

import "errors"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinearFit holds the result of an ordinary least-squares line fit
// y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine performs an ordinary least-squares fit of ys against xs and
// reports the coefficient of determination R². At least two points are
// required.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: length mismatch between xs and ys")
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: need at least two points to fit a line")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values, cannot fit")
	}
	fit := LinearFit{}
	fit.Slope = (n*sxy - sx*sy) / den
	fit.Intercept = (sy - fit.Slope*sx) / n

	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := fit.Slope*xs[i] + fit.Intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	if ssTot == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = 1 - ssRes/ssTot
	}
	return fit, nil
}
