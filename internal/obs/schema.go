package obs

import "fmt"

// SchemaMismatch formats the refuse-on-mismatch error every on-disk
// artifact comparison in this repository presents: it names both files
// and both schema markers, then tells the user how to get back to a
// comparable pair.  The shard loader (internal/engine) uses it for
// aegis.shard files.
func SchemaMismatch(aPath, aSchema, bPath, bSchema, remedy string) error {
	return fmt.Errorf("schema mismatch: %s is %q but %s is %q — %s",
		aPath, aSchema, bPath, bSchema, remedy)
}
