//go:build !race

package optimistic

const raceEnabled = false
