package main

// seed1Digests are the FNV-64a digests of each game's trained weights
// (its SaveModel image) after a seed-1 run at the default training size,
// in Table 3 order. Training is bit-identical at any GOMAXPROCS, worker
// count and kernel implementation, so a mismatch means the training path
// computes something else.
var seed1Digests = map[string][]string{
	"dnn": {
		"Flappybird 37348a05ed473eac",
		"Mario 8bc420758cf7d1a0",
		"Arkanoid 3299f40691a9a994",
		"TORCS d29abf9114d1f0c0",
		"Breakout ac148161b8ba3910",
	},
	"cnn": {
		"Flappybird 157aeab4ab32a139",
		"Mario 0090feb3022d763f",
		"Arkanoid 6abccf620c32f91d",
		"TORCS 45426466acbd17c4",
		"Breakout b81798247b8882f2",
	},
}
