package autonomizer

import (
	"strings"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/serve"
)

// Dial resolves a target string to a Querier, making the engine behind
// a host program a single configuration value. A deployment graduates
// from embedded to one server to a sharded fleet by changing that one
// string — the host's query loop never changes:
//
//	q, err := autonomizer.Dial(os.Getenv("AUTONOMIZER_TARGET"),
//		autonomizer.WithRetry(autonomizer.RetryPolicy{}))
//
// Target grammar:
//
//	""                            embedded Test-mode *Runtime (the default:
//	                              no configuration means in-process)
//	"embedded:"                   same, explicit
//	"embedded:train"              embedded Train-mode *Runtime
//	"http://host:port"            *Client against one auserve, or against
//	"https://host:port"           an aufleet router: a fleet is reached
//	                              through its router's URL, whose surface
//	                              is a single auserve's
//
// Anything else fails with ErrSpecInvalid. Client options apply to the
// remote targets; embedded targets have no transport and ignore them.
// NewRuntime remains the constructor of choice when an embedded
// runtime needs non-transport options (seed, logger, drift config).
func Dial(target string, opts ...ClientOption) (Querier, error) {
	switch {
	case target == "" || target == "embedded:":
		return NewRuntime(Test), nil
	case target == "embedded:train":
		return NewRuntime(Train), nil
	case strings.HasPrefix(target, "embedded:"):
		return nil, auerr.E(auerr.ErrSpecInvalid,
			"autonomizer: unknown embedded mode %q (want \"embedded:\" or \"embedded:train\")", target)
	case strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://"):
		return serve.NewClient(target, opts...), nil
	default:
		return nil, auerr.E(auerr.ErrSpecInvalid,
			"autonomizer: cannot dial %q (want \"\", \"embedded:\", \"embedded:train\", or an http(s) URL)", target)
	}
}
