package nn

import (
	"bytes"
	"errors"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// TestLoadParamsRejectsCorruptBytes feeds damaged serialized-model bytes
// into deserialization and asserts the typed error contract: every
// corruption mode returns an error wrapping auerr.ErrCorruptModel, and
// none of them panics or succeeds silently.
func TestLoadParamsRejectsCorruptBytes(t *testing.T) {
	net := NewDNN(4, []int{8}, 2, stats.NewRNG(3))
	good, err := net.MarshalParams()
	if err != nil {
		t.Fatalf("MarshalParams: %v", err)
	}

	flip := func(data []byte, i int) []byte {
		out := append([]byte(nil), data...)
		out[i] ^= 0xFF
		return out
	}
	cases := []struct {
		desc string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6}},
		{"bad magic", flip(good, 0)},
		{"bad version", flip(good, 4)},
		{"bad tensor count", flip(good, 8)},
		{"bad rank", flip(good, 12)},
		{"truncated header", good[:6]},
		{"truncated data", good[:len(good)-9]},
	}
	for _, c := range cases {
		victim := NewDNN(4, []int{8}, 2, stats.NewRNG(4))
		err := victim.UnmarshalParams(c.data)
		if err == nil {
			t.Errorf("%s: UnmarshalParams accepted corrupt bytes", c.desc)
			continue
		}
		if !errors.Is(err, auerr.ErrCorruptModel) {
			t.Errorf("%s: error %v does not wrap auerr.ErrCorruptModel", c.desc, err)
		}
	}

	// The pristine bytes still load, so the corruption cases above
	// failed for the right reason.
	victim := NewDNN(4, []int{8}, 2, stats.NewRNG(5))
	if err := victim.UnmarshalParams(good); err != nil {
		t.Fatalf("UnmarshalParams on good bytes: %v", err)
	}
}

// TestLoadParamsRejectsArchitectureMismatch loads weights from a
// structurally different network; the shape check must wrap
// auerr.ErrCorruptModel (the bytes are not a valid image of THIS model).
func TestLoadParamsRejectsArchitectureMismatch(t *testing.T) {
	src := NewDNN(4, []int{8}, 2, stats.NewRNG(3))
	data, err := src.MarshalParams()
	if err != nil {
		t.Fatalf("MarshalParams: %v", err)
	}
	dst := NewDNN(6, []int{8}, 2, stats.NewRNG(3))
	if err := dst.UnmarshalParams(data); !errors.Is(err, auerr.ErrCorruptModel) {
		t.Errorf("mismatched load: error %v does not wrap auerr.ErrCorruptModel", err)
	}
}

// trainedForRestore returns a 3-4-2 DNN with the given optimizer after a
// few TrainSteps, so its parameters, moments and step counter all hold
// values a half-applied load would visibly change.
func trainedForRestore(seed uint64, useAdam bool, steps int) *Network {
	net := NewDNN(3, []int{4}, 2, stats.NewRNG(seed))
	if useAdam {
		net.UseAdam(1e-2)
	} else {
		net.UseSGD(1e-2, 0.9)
	}
	in := tensor.FromSlice([]float64{0.3, -0.7, 1.1}, 3)
	target := tensor.FromSlice([]float64{1, -1}, 2)
	for i := 0; i < steps; i++ {
		net.TrainStep(in, target)
	}
	return net
}

// trainingImage is everything a restore can touch: the parameter image
// and the optimizer-state image (moments, velocity, step counter).
func trainingImage(t *testing.T, net *Network) (params, opt []byte) {
	t.Helper()
	params, err := net.MarshalParams()
	if err != nil {
		t.Fatalf("MarshalParams: %v", err)
	}
	opt, err = net.MarshalOptState()
	if err != nil {
		t.Fatalf("MarshalOptState: %v", err)
	}
	return params, opt
}

// TestRejectedStateLeavesNetworkUnchanged pins the all-or-nothing
// restore: a parameter or optimizer-state image that is rejected with
// ErrCorruptModel — truncated anywhere, or a valid state of another
// length appended to — must leave every parameter, moment and step
// counter bit-identical, alone (UnmarshalParams, UnmarshalOptState) and
// together (UnmarshalTrainingState).
func TestRejectedStateLeavesNetworkUnchanged(t *testing.T) {
	for _, useAdam := range []bool{true, false} {
		src := trainedForRestore(11, useAdam, 5)
		goodParams, goodOpt := trainingImage(t, src)
		corrupt := map[string][]byte{
			"opt truncated by 8": goodOpt[:len(goodOpt)-8],
			"opt truncated by 1": goodOpt[:len(goodOpt)-1],
			"opt trailing byte":  append(append([]byte(nil), goodOpt...), 0),
		}
		loads := map[string]func(*Network, []byte) error{
			"UnmarshalOptState": func(n *Network, b []byte) error { return n.UnmarshalOptState(b) },
			"UnmarshalTrainingState": func(n *Network, b []byte) error {
				return n.UnmarshalTrainingState(goodParams, b)
			},
		}
		for cname, bad := range corrupt {
			for lname, load := range loads {
				victim := trainedForRestore(12, useAdam, 3)
				wantParams, wantOpt := trainingImage(t, victim)
				if err := load(victim, bad); !errors.Is(err, auerr.ErrCorruptModel) {
					t.Fatalf("adam=%v %s/%s: error %v, want ErrCorruptModel", useAdam, lname, cname, err)
				}
				gotParams, gotOpt := trainingImage(t, victim)
				if !bytes.Equal(gotParams, wantParams) || !bytes.Equal(gotOpt, wantOpt) {
					t.Errorf("adam=%v %s/%s: a rejected load changed the network", useAdam, lname, cname)
				}
			}
		}
		for _, cut := range []int{1, 8, len(goodParams) / 2} {
			victim := trainedForRestore(12, useAdam, 3)
			wantParams, wantOpt := trainingImage(t, victim)
			badParams := goodParams[:len(goodParams)-cut]
			if err := victim.UnmarshalParams(badParams); !errors.Is(err, auerr.ErrCorruptModel) {
				t.Fatalf("adam=%v params cut by %d: error %v, want ErrCorruptModel", useAdam, cut, err)
			}
			if err := victim.UnmarshalTrainingState(badParams, goodOpt); !errors.Is(err, auerr.ErrCorruptModel) {
				t.Fatalf("adam=%v training state, params cut by %d: error %v, want ErrCorruptModel", useAdam, cut, err)
			}
			gotParams, gotOpt := trainingImage(t, victim)
			if !bytes.Equal(gotParams, wantParams) || !bytes.Equal(gotOpt, wantOpt) {
				t.Errorf("adam=%v params cut by %d: a rejected load changed the network", useAdam, cut)
			}
		}
		// The good images still load, so the cases above failed for the
		// right reason.
		victim := trainedForRestore(12, useAdam, 3)
		if err := victim.UnmarshalTrainingState(goodParams, goodOpt); err != nil {
			t.Fatalf("adam=%v good images: %v", useAdam, err)
		}
		gotParams, gotOpt := trainingImage(t, victim)
		if !bytes.Equal(gotParams, goodParams) || !bytes.Equal(gotOpt, goodOpt) {
			t.Errorf("adam=%v good images did not restore the source network", useAdam)
		}
	}
}
