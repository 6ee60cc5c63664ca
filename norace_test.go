//go:build !race

package aegis_test

const raceEnabled = false
