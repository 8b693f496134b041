package browser

import (
	"strings"
	"testing"

	"repro/internal/xquery"
)

// Every function of the browser: layer acts on the window its run
// carries; a run without one (a server's, the command line's) fails
// the call instead of reaching any other page.
func TestFunctionsNeedTheRunsWindow(t *testing.T) {
	e := xquery.NewAbove(Functions())
	for _, src := range []string{
		`browser:alert("x")`,
		`browser:self()`,
		`browser:document()`,
		`browser:addEventListener(<a/>, "click", "local:f")`,
		`browser:removeEventListener(<a/>, "click", "local:f")`,
	} {
		if _, err := e.EvalQuery(src, nil); err == nil || !strings.Contains(err.Error(), "only available in a page's script") {
			t.Errorf("%s without a page: err = %v", src, err)
		}
	}
}
