package gram

import "testing"

// FuzzEstPrimeLowerBound verifies the n-gram bound never exceeds the true
// edit distance for arbitrary byte strings.
func FuzzEstPrimeLowerBound(f *testing.F) {
	f.Add("digital camera", "digtal camrea", 2)
	f.Add("a", "b", 5)
	f.Fuzz(func(t *testing.T, a, b string, n int) {
		if len(a) == 0 || len(b) == 0 || len(a) > 64 || len(b) > 64 {
			return
		}
		if n < 0 {
			n = -n
		}
		n = n%7 + 1
		if est, ed := EstPrime(a, b, n), float64(EditDistance(a, b)); est > ed {
			t.Fatalf("est'(%q,%q,%d) = %v > ed = %v", a, b, n, est, ed)
		}
	})
}
