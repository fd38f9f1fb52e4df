//go:build !linux || race

package vm

// Images are Go memory here: mapImage has nothing to give, so no image is
// unmapped and no ballast is allocated.
func mapImage(size int) []byte { return nil }
func releasePages(mem []byte)  {}
func unmapImage(mem []byte)    {}
