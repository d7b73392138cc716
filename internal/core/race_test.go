//go:build race

package core

const raceEnabled = true
