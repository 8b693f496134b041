package plan

// LibraryRow is a row of the library table, for the drift test in
// package plan_test (which imports funclib, and funclib imports plan).
type LibraryRow struct {
	Space, Local string
	Focus        int
}

// LibraryRows lists the library table; namespaces lists its namespaces.
func LibraryRows() (rows []LibraryRow, namespaces []string) {
	for space, fns := range library {
		namespaces = append(namespaces, space)
		for local, fn := range fns {
			rows = append(rows, LibraryRow{space, local, fn.focus})
		}
	}
	return rows, namespaces
}
