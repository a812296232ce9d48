package tensor

// ConvOutputSize returns the spatial output size of a convolution or
// pooling window: (inSize + 2*pad - kernel)/stride + 1.
func ConvOutputSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
