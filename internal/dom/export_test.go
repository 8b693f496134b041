package dom

// RandomTree is the property tests' tree generator (randomTree), for
// the tests of package dom_test.
var RandomTree = randomTree
