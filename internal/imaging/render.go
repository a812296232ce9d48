package imaging

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// asciiRamp maps brightness to characters, dark to bright.
const asciiRamp = " .:-=+*#%@"

// ASCII renders the image as character art, averaging blockW×blockH
// pixel blocks onto the brightness ramp. It is the terminal "video"
// renderer used by cmd/replay.
func ASCII(img *Image, blockW, blockH int) string {
	if blockW < 1 {
		blockW = 1
	}
	if blockH < 1 {
		blockH = 1
	}
	var b strings.Builder
	for y := 0; y+blockH <= img.H; y += blockH {
		for x := 0; x+blockW <= img.W; x += blockW {
			sum := 0.0
			for dy := 0; dy < blockH; dy++ {
				for dx := 0; dx < blockW; dx++ {
					sum += img.At(x+dx, y+dy)
				}
			}
			v := sum / float64(blockW*blockH)
			idx := int(v / 256 * float64(len(asciiRamp)))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(asciiRamp) {
				idx = len(asciiRamp) - 1
			}
			b.WriteByte(asciiRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WritePGM writes the image as a binary PGM (P5) stream, clamping
// pixels to [0, 255].
func WritePGM(w io.Writer, img *Image) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", img.W, img.H); err != nil {
		return fmt.Errorf("imaging: write PGM header: %w", err)
	}
	buf := make([]byte, img.W*img.H)
	for i, v := range img.Pix {
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		buf[i] = byte(v)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("imaging: write PGM data: %w", err)
	}
	return nil
}

const (
	// maxPGMPixels bounds the pixel count ReadPGM accepts (64 Mi pixels).
	maxPGMPixels = 1 << 26
	// maxPGMToken bounds a header field: the magic, or a decimal int64.
	maxPGMToken = 20
)

// ReadPGM parses a binary PGM (P5) stream produced by WritePGM. The
// header is tokenized manually: the P5 format allows a single
// whitespace byte between the max value and the pixel data, and pixel
// bytes may themselves look like whitespace, so buffered or scanning
// readers (fmt.Fscan) cannot be trusted not to eat data.
func ReadPGM(r io.Reader) (*Image, error) {
	one := make([]byte, 1)
	token := func() (string, error) {
		b := make([]byte, 0, maxPGMToken)
		// Skip leading whitespace.
		for {
			if _, err := io.ReadFull(r, one); err != nil {
				return "", err
			}
			if !isPGMSpace(one[0]) {
				b = append(b, one[0])
				break
			}
		}
		// Accumulate until the single delimiting whitespace byte, which
		// is consumed and discarded.
		for {
			if _, err := io.ReadFull(r, one); err != nil {
				if err == io.EOF && len(b) > 0 {
					return string(b), nil
				}
				return "", err
			}
			if isPGMSpace(one[0]) {
				return string(b), nil
			}
			if len(b) == maxPGMToken {
				return "", fmt.Errorf("header field longer than %d bytes", maxPGMToken)
			}
			b = append(b, one[0])
		}
	}
	magic, err := token()
	if err != nil {
		return nil, fmt.Errorf("imaging: read PGM magic: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("imaging: not a binary PGM (magic %q)", magic)
	}
	var dims [3]int
	for i := range dims {
		t, err := token()
		if err != nil {
			return nil, fmt.Errorf("imaging: read PGM header: %w", err)
		}
		v, err := strconv.Atoi(t)
		if err != nil {
			return nil, fmt.Errorf("imaging: bad PGM header field %q", t)
		}
		dims[i] = v
	}
	w, h, maxVal := dims[0], dims[1], dims[2]
	// Each dimension is bounded before they are multiplied, so the
	// product cannot overflow.
	if w <= 0 || h <= 0 || w > maxPGMPixels || h > maxPGMPixels/w {
		return nil, fmt.Errorf("imaging: implausible PGM size %dx%d", w, h)
	}
	if maxVal != 255 {
		return nil, fmt.Errorf("imaging: unsupported max value %d", maxVal)
	}
	// The pixel buffer grows with the bytes that actually arrive, so a
	// header that promises more than the stream holds costs no more
	// memory than the stream itself.
	buf, err := io.ReadAll(io.LimitReader(r, int64(w*h)))
	if err != nil {
		return nil, fmt.Errorf("imaging: read PGM data: %w", err)
	}
	if len(buf) != w*h {
		return nil, fmt.Errorf("imaging: read PGM data: %d of %d bytes: %w", len(buf), w*h, io.ErrUnexpectedEOF)
	}
	img := NewImage(w, h)
	for i, b := range buf {
		img.Pix[i] = float64(b)
	}
	return img, nil
}

func isPGMSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}
