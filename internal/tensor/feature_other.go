//go:build !amd64 || purego

package tensor

// archKernel reports no accelerated kernels on architectures without an
// assembly implementation, and under the purego build tag on any
// architecture; pickKernel falls back to the generic Go kernels, which
// are bit-identical by the dispatch contract. `go test -tags purego
// ./...` thus runs every test, golden digests included, on the Go
// kernels.
func archKernel() *kernelImpl { return nil }
