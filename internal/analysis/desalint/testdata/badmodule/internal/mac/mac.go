// Package mac seeds a goroutine mutating a captured variable and a
// stale //desalint:ignore line.
package mac

// Spawn launches a goroutine that writes captured state. sharedstate.
func Spawn() int {
	total := 0
	go func() {
		total++
	}()
	return total //desalint:ignore maporder stale suppression: nothing on this line ranges a map
}
