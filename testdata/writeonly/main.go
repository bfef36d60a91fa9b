// Command writeonly is the fixture module TestUnreachedNamesFlagsWrites
// scans: it reaches package fix only through fix.Run.
package main

import "quasaq/internal/fix"

func main() { fix.Run() }
