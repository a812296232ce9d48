//go:build amd64 && !purego

package tensor

// archKernel returns the accelerated implementation for this host, or
// nil when the CPU (or OS) lacks the required features.
func archKernel() *kernelImpl {
	if !hasAVX2FMA() {
		return nil
	}
	return avx2Impl
}
