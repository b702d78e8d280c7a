//go:build race

package main

// raceEnabled reports a build with the race detector, which slows the
// in-process sweep's simulator several times over.
const raceEnabled = true
