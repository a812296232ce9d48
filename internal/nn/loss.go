package nn

import (
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Loss scores a prediction against a target and produces the gradient of
// the loss with respect to the prediction.
type Loss interface {
	// Loss returns the scalar loss value.
	Loss(pred, target *tensor.Tensor) float64
	// GradInto writes d loss / d pred into the caller-owned dst (same
	// size as pred) and returns it. The Network training paths pass a
	// reused scratch tensor, so the steady-state loss gradient allocates
	// nothing.
	GradInto(dst, pred, target *tensor.Tensor) *tensor.Tensor
	// Name identifies the loss for logging.
	Name() string
}

// MSE is the mean-squared-error loss used for the supervised parameter
// regression models (predicting lo/hi/sigma etc.).
type MSE struct{}

// Loss returns mean((pred-target)²).
func (MSE) Loss(pred, target *tensor.Tensor) float64 {
	checkSameSize(pred, target)
	sum := 0.0
	for i, p := range pred.Data() {
		d := p - target.Data()[i]
		sum += d * d
	}
	return sum / float64(pred.Size())
}

// GradInto writes 2(pred-target)/n into dst.
func (MSE) GradInto(dst, pred, target *tensor.Tensor) *tensor.Tensor {
	checkSameSize(pred, target)
	checkSameSize(dst, pred)
	n := float64(pred.Size())
	od := dst.Data()
	td := target.Data()
	for i, p := range pred.Data() {
		od[i] = 2 * (p - td[i]) / n
	}
	return dst
}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// Huber is the smooth-L1 loss used for Q-learning targets; it behaves
// quadratically near zero and linearly beyond Delta, which keeps
// bootstrapped TD errors from destabilizing training.
type Huber struct {
	// Delta is the quadratic/linear crossover point; zero means 1.0.
	Delta float64
}

func (h Huber) delta() float64 {
	if h.Delta <= 0 {
		return 1
	}
	return h.Delta
}

// Loss returns the mean Huber loss.
func (h Huber) Loss(pred, target *tensor.Tensor) float64 {
	checkSameSize(pred, target)
	d := h.delta()
	sum := 0.0
	for i, p := range pred.Data() {
		sum += huberTerm(p-target.Data()[i], d)
	}
	return sum / float64(pred.Size())
}

// GradInto writes the elementwise Huber gradient divided by n into dst.
func (h Huber) GradInto(dst, pred, target *tensor.Tensor) *tensor.Tensor {
	checkSameSize(pred, target)
	checkSameSize(dst, pred)
	d := h.delta()
	n := float64(pred.Size())
	od := dst.Data()
	td := target.Data()
	for i, p := range pred.Data() {
		od[i] = huberSlope(p-td[i], d, n)
	}
	return dst
}

// Name implements Loss.
func (h Huber) Name() string { return "huber" }

// huberTerm is one element's Huber loss at error e.
func huberTerm(e, d float64) float64 {
	e = math.Abs(e)
	if e <= d {
		return 0.5 * e * e
	}
	return d * (e - 0.5*d)
}

// huberSlope is one element's Huber gradient at error e, divided by n.
func huberSlope(e, d, n float64) float64 {
	switch {
	case e > d:
		return d / n
	case e < -d:
		return -d / n
	default:
		return e / n
	}
}

// TDHuber is the Huber loss of a Q-learning temporal-difference update.
// Its target is the pair (action, y): only the taken action's Q-value is
// regressed toward the bootstrap y. Loss and GradInto equal Huber against
// the vector that copies pred and holds y at action, element for element
// (NaN and ±Inf predictions included), without materializing it. It uses
// Huber's default delta.
type TDHuber struct{}

// tdTarget validates a (action, y) target against pred, returning both.
func tdTarget(pred, target *tensor.Tensor) (int, float64) {
	if target.Size() != 2 {
		auerr.Failf("nn: TD target must be (action, y), got %d values", target.Size())
	}
	a := target.Data()[0]
	if a != math.Trunc(a) || a < 0 || a >= float64(pred.Size()) {
		auerr.Failf("nn: TD target action %v is not an index below %d", a, pred.Size())
	}
	return int(a), target.Data()[1]
}

// Loss returns the mean Huber loss against pred with y at action.
func (TDHuber) Loss(pred, target *tensor.Tensor) float64 {
	a, y := tdTarget(pred, target)
	d := Huber{}.delta()
	sum := 0.0
	for i, p := range pred.Data() {
		t := p
		if i == a {
			t = y
		}
		sum += huberTerm(p-t, d)
	}
	return sum / float64(pred.Size())
}

// GradInto writes the TD Huber gradient divided by n into dst.
func (TDHuber) GradInto(dst, pred, target *tensor.Tensor) *tensor.Tensor {
	a, y := tdTarget(pred, target)
	checkSameSize(dst, pred)
	d := Huber{}.delta()
	n := float64(pred.Size())
	od := dst.Data()
	for i, p := range pred.Data() {
		t := p
		if i == a {
			t = y
		}
		od[i] = huberSlope(p-t, d, n)
	}
	return dst
}

// Name implements Loss.
func (TDHuber) Name() string { return "td-huber" }

// CrossEntropy is the categorical cross-entropy loss over a softmax
// output; the target must be a one-hot (or soft) distribution. Its
// gradient is (pred - target), matching the Softmax layer's pass-through backward.
type CrossEntropy struct{}

// Loss returns -Σ target·log(pred).
func (CrossEntropy) Loss(pred, target *tensor.Tensor) float64 {
	checkSameSize(pred, target)
	sum := 0.0
	for i, p := range pred.Data() {
		if target.Data()[i] == 0 {
			continue
		}
		sum -= target.Data()[i] * math.Log(math.Max(p, 1e-12))
	}
	return sum
}

// GradInto writes pred - target into dst.
func (CrossEntropy) GradInto(dst, pred, target *tensor.Tensor) *tensor.Tensor {
	checkSameSize(pred, target)
	checkSameSize(dst, pred)
	od := dst.Data()
	td := target.Data()
	for i, p := range pred.Data() {
		od[i] = p - td[i]
	}
	return dst
}

// Name implements Loss.
func (CrossEntropy) Name() string { return "cross-entropy" }

func checkSameSize(a, b *tensor.Tensor) {
	if a.Size() != b.Size() {
		auerr.Failf("nn: loss size mismatch %d vs %d", a.Size(), b.Size())
	}
}
