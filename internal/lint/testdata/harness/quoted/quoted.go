// Fixture for the testdata harness: an expectation written in double
// quotes, which the harness must reject rather than ignore.
package quoted

import "time"

func stamp() time.Time {
	return time.Now() // want "wall clock"
}
