package gc

// SetTweakSeen installs f as the recorder of every tweak the garbler hashes
// under (nil removes it). Install it before any level runs and remove it
// after the last; f must be safe for concurrent use.
func SetTweakSeen(f func(t, o uint64)) { tweakSeen = f }
