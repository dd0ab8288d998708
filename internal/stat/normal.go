package stat

import "math"

// NormPDF returns the standard normal density at x.
func NormPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// NormCDF returns the standard normal cumulative distribution at x.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
