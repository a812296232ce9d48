package imaging

import (
	"bytes"
	"math"
	"os"
	"testing"

	"github.com/autonomizer/autonomizer/internal/stats"
)

func TestImageBasics(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(1, 2, 42)
	if im.At(1, 2) != 42 {
		t.Error("Set/At round trip failed")
	}
	// Border clamping.
	im.Set(0, 0, 7)
	if im.At(-5, -5) != 7 || im.At(100, 0) != im.At(3, 0) {
		t.Error("border clamp wrong")
	}
	// Out-of-bounds writes ignored.
	im.Set(-1, 0, 99)
	im.Set(0, 99, 99)
	c := im.Clone()
	c.Set(1, 1, 5)
	if im.At(1, 1) == 5 {
		t.Error("Clone shares pixels")
	}
}

func TestNewImagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewImage(0,5) did not panic")
		}
	}()
	NewImage(0, 5)
}

func TestClamp255(t *testing.T) {
	im := NewImage(2, 1)
	im.Pix[0] = -10
	im.Pix[1] = 300
	im.Clamp255()
	if im.Pix[0] != 0 || im.Pix[1] != 255 {
		t.Errorf("Clamp255 = %v", im.Pix)
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5} {
		k := GaussianKernel(sigma)
		if len(k)%2 != 1 {
			t.Errorf("kernel length %d not odd", len(k))
		}
		sum := 0.0
		for _, v := range k {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("kernel sum = %v for sigma %v", sum, sigma)
		}
		// Symmetric and peaked at center.
		for i := 0; i < len(k)/2; i++ {
			if math.Abs(k[i]-k[len(k)-1-i]) > 1e-12 {
				t.Errorf("kernel asymmetric at %d", i)
			}
		}
		if k[len(k)/2] < k[0] {
			t.Error("kernel not peaked at center")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("GaussianKernel(0) did not panic")
		}
	}()
	GaussianKernel(0)
}

func TestGaussianSmoothPreservesConstant(t *testing.T) {
	im := NewImage(16, 16)
	for i := range im.Pix {
		im.Pix[i] = 100
	}
	sm := GaussianSmooth(im, 1.5)
	for _, v := range sm.Pix {
		if math.Abs(v-100) > 1e-9 {
			t.Fatalf("smoothing changed constant image: %v", v)
		}
	}
}

func TestGaussianSmoothReducesNoise(t *testing.T) {
	rng := stats.NewRNG(1)
	im := NewImage(32, 32)
	for i := range im.Pix {
		im.Pix[i] = 100 + rng.NormFloat64()*30
	}
	sm := GaussianSmooth(im, 2)
	if stats.Variance(sm.Pix) >= stats.Variance(im.Pix)/2 {
		t.Errorf("smoothing did not reduce variance: %v -> %v",
			stats.Variance(im.Pix), stats.Variance(sm.Pix))
	}
}

func TestSobelDetectsStepEdge(t *testing.T) {
	im := NewImage(16, 16)
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			im.Set(x, y, 200)
		}
	}
	mag, dir := Sobel(im)
	// Magnitude must peak at the x=7/8 boundary with a horizontal
	// gradient (direction 0).
	if mag.At(7, 8) < mag.At(2, 8)+100 {
		t.Errorf("edge magnitude %v not above interior %v", mag.At(7, 8), mag.At(2, 8))
	}
	if dir[8*16+7] != 0 {
		t.Errorf("edge direction = %d, want 0", dir[8*16+7])
	}
}

func TestHistogramTotalsPixels(t *testing.T) {
	im := NewImage(8, 8)
	h := im.Histogram(16)
	if stats.Sum(h) != 64 {
		t.Errorf("histogram mass %v, want 64", stats.Sum(h))
	}
}

func TestDownsample(t *testing.T) {
	im := NewImage(8, 8)
	for i := range im.Pix {
		im.Pix[i] = float64(i % 4)
	}
	d := Downsample(im, 2)
	if d.W != 4 || d.H != 4 {
		t.Fatalf("Downsample size %dx%d", d.W, d.H)
	}
	// Mean preserved under box averaging of an evenly divisible image.
	if math.Abs(d.Mean()-im.Mean()) > 1e-9 {
		t.Errorf("Downsample mean %v, want %v", d.Mean(), im.Mean())
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized factor did not panic")
		}
	}()
	Downsample(im, 100)
}

func TestSSIMIdentity(t *testing.T) {
	rng := stats.NewRNG(2)
	im := NewImage(32, 32)
	for i := range im.Pix {
		im.Pix[i] = rng.Range(0, 255)
	}
	if got := SSIM(im, im); math.Abs(got-1) > 1e-9 {
		t.Errorf("SSIM(x,x) = %v, want 1", got)
	}
}

func TestSSIMOrdersDegradation(t *testing.T) {
	rng := stats.NewRNG(3)
	base := NewImage(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if (x/8+y/8)%2 == 0 {
				base.Set(x, y, 200)
			} else {
				base.Set(x, y, 50)
			}
		}
	}
	light := base.Clone()
	heavy := base.Clone()
	for i := range light.Pix {
		light.Pix[i] += rng.NormFloat64() * 10
		heavy.Pix[i] += rng.NormFloat64() * 80
	}
	sLight, sHeavy := SSIM(base, light), SSIM(base, heavy)
	if !(1 > sLight && sLight > sHeavy) {
		t.Errorf("SSIM ordering violated: light=%v heavy=%v", sLight, sHeavy)
	}
}

func TestSSIMSymmetric(t *testing.T) {
	rng := stats.NewRNG(4)
	a, b := NewImage(24, 24), NewImage(24, 24)
	for i := range a.Pix {
		a.Pix[i] = rng.Range(0, 255)
		b.Pix[i] = rng.Range(0, 255)
	}
	if math.Abs(SSIM(a, b)-SSIM(b, a)) > 1e-12 {
		t.Error("SSIM not symmetric")
	}
}

func TestSSIMSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SSIM size mismatch did not panic")
		}
	}()
	SSIM(NewImage(4, 4), NewImage(5, 5))
}

func TestSSIMTinyImage(t *testing.T) {
	a, b := NewImage(4, 4), NewImage(4, 4)
	if got := SSIM(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("tiny identical SSIM = %v", got)
	}
}

func TestEdgeF1(t *testing.T) {
	truth := NewImage(16, 16)
	for x := 0; x < 16; x++ {
		truth.Set(x, 8, 255)
	}
	perfect := truth.Clone()
	if got := EdgeF1(perfect, truth); got < 0.99 {
		t.Errorf("perfect F1 = %v", got)
	}
	// One pixel off is within tolerance.
	shifted := NewImage(16, 16)
	for x := 0; x < 16; x++ {
		shifted.Set(x, 9, 255)
	}
	if got := EdgeF1(shifted, truth); got < 0.99 {
		t.Errorf("1-px tolerance F1 = %v", got)
	}
	empty := NewImage(16, 16)
	if got := EdgeF1(empty, truth); got != 0 {
		t.Errorf("empty-prediction F1 = %v", got)
	}
	noisy := NewImage(16, 16)
	for y := 0; y < 16; y += 3 {
		for x := 0; x < 16; x++ {
			noisy.Set(x, y, 255)
		}
	}
	if f := EdgeF1(noisy, truth); f >= EdgeF1(perfect, truth) {
		t.Errorf("noisy F1 %v not below perfect", f)
	}
}

func TestGenerateSceneProperties(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		s := GenerateScene(stats.NewRNG(seed), SceneConfig{})
		if s.Img.W != 64 || s.Img.H != 64 || s.Truth.W != 64 {
			t.Fatal("scene dimensions wrong")
		}
		for _, v := range s.Img.Pix {
			if v < 0 || v > 255 {
				t.Fatalf("pixel out of range: %v", v)
			}
		}
		edges := 0
		for _, v := range s.Truth.Pix {
			if v == 255 {
				edges++
			} else if v != 0 {
				t.Fatalf("truth map not binary: %v", v)
			}
		}
		if edges < 10 {
			t.Errorf("seed %d: scene has only %d edge pixels", seed, edges)
		}
		if s.Noise <= 0 || s.Contrast <= 0 {
			t.Error("scene parameters not recorded")
		}
	}
}

func TestGenerateSceneDeterministic(t *testing.T) {
	a := GenerateScene(stats.NewRNG(7), SceneConfig{})
	b := GenerateScene(stats.NewRNG(7), SceneConfig{})
	for i := range a.Img.Pix {
		if a.Img.Pix[i] != b.Img.Pix[i] {
			t.Fatal("same seed produced different scenes")
		}
	}
}

func TestGenerateCorpus(t *testing.T) {
	c := GenerateCorpus(11, 5, SceneConfig{W: 32, H: 32})
	if len(c) != 5 {
		t.Fatalf("corpus size %d", len(c))
	}
	// Scenes must differ from each other.
	same := true
	for i := range c[0].Img.Pix {
		if c[0].Img.Pix[i] != c[1].Img.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("corpus scenes identical")
	}
}

func TestASCIIRender(t *testing.T) {
	img := NewImage(4, 4)
	for x := 2; x < 4; x++ {
		for y := 0; y < 4; y++ {
			img.Set(x, y, 255)
		}
	}
	got := ASCII(img, 2, 2)
	want := " @\n @\n"
	if got != want {
		t.Errorf("ASCII = %q, want %q", got, want)
	}
	// Degenerate block sizes clamp to 1.
	if ASCII(img, 0, 0) == "" {
		t.Error("block size 0 produced empty output")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	rng := stats.NewRNG(9)
	img := NewImage(12, 7)
	for i := range img.Pix {
		img.Pix[i] = float64(int(rng.Range(0, 256)))
	}
	var buf bytes.Buffer
	if err := WritePGM(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 12 || got.H != 7 {
		t.Fatalf("size %dx%d", got.W, got.H)
	}
	for i := range img.Pix {
		if got.Pix[i] != img.Pix[i] {
			t.Fatalf("pixel %d: %v != %v", i, got.Pix[i], img.Pix[i])
		}
	}
}

func TestWritePGMClamps(t *testing.T) {
	img := NewImage(2, 1)
	img.Pix[0] = -50
	img.Pix[1] = 900
	var buf bytes.Buffer
	if err := WritePGM(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pix[0] != 0 || got.Pix[1] != 255 {
		t.Errorf("clamped pixels = %v", got.Pix)
	}
}

// pgmGarbage are PGM streams ReadPGM must reject: empty input, the
// wrong magic, bad dimensions and max value, sizes whose product
// overflows int or passes the pixel cap, and a header that promises
// 64 Mi pixels but supplies none.
var pgmGarbage = []string{
	"",
	"P6\n2 2\n255\n",
	"P5\n-1 2\n255\n",
	"P5\n2 2\n128\n",
	"P5 4294967296 4294967296 255\n",
	"P5 9223372036854775807 2 255\n",
	"P5 67108865 1 255\n",
	"P5 8193 8193 255\n",
	"P5 8192 8192 255\n",
}

func TestReadPGMRejectsGarbage(t *testing.T) {
	for _, bad := range pgmGarbage {
		_, err, alloc := readPGMMeasured([]byte(bad))
		if err == nil {
			t.Errorf("accepted %q", bad)
		}
		if budget := pgmAllocBudget(len(bad)); alloc > budget {
			t.Errorf("rejecting %q allocated %d bytes, want <= %d", bad, alloc, budget)
		}
	}
	// Truncated data.
	var buf bytes.Buffer
	buf.WriteString("P5\n4 4\n255\n\x00\x01")
	if _, err := ReadPGM(&buf); err == nil {
		t.Error("accepted truncated data")
	}
}

func TestPGMFileRoundTrip(t *testing.T) {
	img := NewImage(8, 8)
	img.Set(3, 3, 255)
	path := t.TempDir() + "/t.pgm"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePGM(f, img); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got, err := ReadPGM(g)
	if err != nil {
		t.Fatalf("ReadPGM from file: %v", err)
	}
	if got.At(3, 3) != 255 {
		t.Error("file round trip lost data")
	}
}
