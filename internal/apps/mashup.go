package apps

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/rest"
	"repro/internal/xquery/runtime"
)

// The Google-Maps-weather mash-up of §6.2 (Figure 3): JavaScript runs
// the map (talking to the map service with AJAX), XQuery initiates REST
// calls to weather services and web-cam directories and integrates the
// results — and "code written in both languages listens to the same
// events": one click on the search button triggers both.
//
// The external services are synthetic in-process HTTP servers (see
// DESIGN.md substitutions): the experiment exercises REST integration,
// shared event handling and DOM merging, none of which depend on the
// real services' payloads.

// MashupServices hosts the synthetic map, weather and web-cam services.
type MashupServices struct {
	Maps      *httptest.Server
	Weather   *httptest.Server
	WeatherDE *httptest.Server // the German-language service (§6.2: "a selection of different weather services is used, depending on the used language")
	Webcams   *httptest.Server

	mu       sync.Mutex
	requests map[string]int
}

// NewMashupServices starts the three services. Payloads are
// deterministic functions of the location so tests can assert content.
func NewMashupServices() *MashupServices {
	s := &MashupServices{requests: map[string]int{}}
	s.Maps = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.bump("maps")
		loc := r.URL.Query().Get("loc")
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprintf(w, `<map location="%s">`, markup.EscapeAttr(loc))
		for i := 0; i < 4; i++ {
			fmt.Fprintf(w, `<tile x="%d" y="%d" url="tile://%s/%d"/>`, i%2, i/2, loc, i)
		}
		io.WriteString(w, `</map>`)
	}))
	s.Weather = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.bump("weather")
		loc := r.URL.Query().Get("loc")
		temp, cond := syntheticWeather(loc)
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprintf(w, `<weather location="%s"><temp>%d</temp><condition>%s</condition></weather>`,
			markup.EscapeAttr(loc), temp, cond)
	}))
	s.WeatherDE = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.bump("weather-de")
		loc := r.URL.Query().Get("loc")
		temp, cond := syntheticWeather(loc)
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprintf(w, `<wetter ort="%s"><temperatur>%d</temperatur><lage>%s</lage></wetter>`,
			markup.EscapeAttr(loc), temp, germanCondition[cond])
	}))
	s.Webcams = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.bump("webcams")
		loc := r.URL.Query().Get("loc")
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprintf(w, `<webcams location="%s">`, markup.EscapeAttr(loc))
		for i := 1; i <= 2; i++ {
			fmt.Fprintf(w, `<cam url="http://cams.example.com/%s/%d"/>`, loc, i)
		}
		io.WriteString(w, `</webcams>`)
	}))
	return s
}

func (s *MashupServices) bump(which string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests[which]++
}

// Requests returns how many calls each service received.
func (s *MashupServices) Requests(which string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests[which]
}

// Close shuts the services down.
func (s *MashupServices) Close() {
	s.Maps.Close()
	s.Weather.Close()
	s.WeatherDE.Close()
	s.Webcams.Close()
}

// germanCondition is the German weather service's word for each
// condition syntheticWeather reports.
var germanCondition = map[string]string{"sunny": "sonnig", "cloudy": "bewölkt",
	"rain": "Regen", "snow": "Schnee"}

// syntheticWeather derives a stable temperature and condition from the
// location name.
func syntheticWeather(loc string) (int, string) {
	h := fnv.New32a()
	_, _ = io.WriteString(h, loc)
	v := h.Sum32()
	conds := []string{"sunny", "cloudy", "rain", "snow"}
	return int(v%35) - 5, conds[v%4]
}

// MashupPage builds the mash-up page: the XQuery half listens on the
// same search button the JavaScript half uses.
func MashupPage(weatherURL, weatherDEURL, webcamURL string) string {
	return `<html><head><title>Maps + Weather</title>
<script type="text/xqueryp">
declare namespace rest = "http://www.example.com/rest";
(: §6.2: the weather service is selected by the user's language. :)
declare function local:weatherLine($loc as xs:string) {
  if (browser:navigator()/language = "de")
  then
    let $w := rest:get(concat("` + weatherDEURL + `?loc=", encode-for-uri($loc)))/wetter
    return concat($w/lage, " bei ", $w/temperatur, " Grad")
  else
    let $w := rest:get(concat("` + weatherURL + `?loc=", encode-for-uri($loc)))/weather
    return concat($w/condition, " at ", $w/temp, " degrees")
};
declare updating function local:onSearch($evt, $obj) {
  let $loc := string(//input[@id="searchbox"]/@value)
  let $cams := rest:get(concat("` + webcamURL + `?loc=", encode-for-uri($loc)))/webcams
  return (
    replace value of node //div[@id="weather"]
      with local:weatherLine($loc),
    replace node //div[@id="webcams"]/ul with
      <ul>{ for $c in $cams/cam return <li>{string($c/@url)}</li> }</ul>
  )
};
on event "click" at //input[@id="searchbutton"]
attach listener local:onSearch
</script>
</head><body>
<input id="searchbox" type="text" value=""/>
<input id="searchbutton" type="button" value="Search"/>
<div id="map"/>
<div id="weather"/>
<div id="webcams"><ul/></div>
</body></html>`
}

// Mashup is a running mash-up page.
type Mashup struct {
	Host     *core.Host
	Services *MashupServices
	Client   *rest.Client
	// HandlerOrder records which language's listener ran, in order.
	HandlerOrder []string
}

// NewMashup starts services and loads the page with both script halves
// for an English-language browser; NewMashupWithLanguage selects the
// weather service by navigator language (§6.2).
func NewMashup() (*Mashup, error) { return NewMashupWithLanguage("en") }

// NewMashupWithLanguage starts the mash-up with the given browser
// language.
func NewMashupWithLanguage(lang string) (*Mashup, error) {
	m := &Mashup{Services: NewMashupServices()}
	m.Client = rest.NewClient(nil)

	// The JavaScript half: Google-Maps code reacting to the same click
	// (§6.2 — "if the search button in Google Maps is clicked, then
	// naturally, Google is called in order to serve the right map").
	jsSetup := func(page *dom.Node) {
		btn := page.ElementByID("searchbutton")
		btn.AddEventListener("click", false, nil, func(ev *dom.Event) {
			m.HandlerOrder = append(m.HandlerOrder, "javascript")
			loc := page.ElementByID("searchbox").AttrValue("value")
			resp, err := http.Get(m.Services.Maps.URL + "?loc=" + url.QueryEscape(loc))
			if err != nil {
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mapDoc, err := markup.Parse(string(body))
			if err != nil {
				return
			}
			target := page.ElementByID("map")
			target.RemoveChildren()
			_ = target.AppendChild(mapDoc.DocumentElement().Clone())
		})
	}

	page := MashupPage(m.Services.Weather.URL, m.Services.WeatherDE.URL, m.Services.Webcams.URL)
	nav := browser.NavigatorInfo{AppName: "XQIB", Language: lang}
	host, err := core.LoadPage(page, "http://mashup.example.com/",
		core.WithJSSetup(jsSetup),
		core.WithNavigator(nav),
		core.WithExtraFunctions(func(reg *runtime.Registry) {
			m.Client.RegisterFunctions(reg)
		}),
	)
	if err != nil {
		m.Services.Close()
		return nil, err
	}
	m.Host = host
	return m, nil
}

// Search simulates the user typing a location and clicking the search
// button; both language halves handle the one click. The JS listener
// records itself in HandlerOrder directly; the XQuery half's execution
// is detected by its observable effect (the weather div it replaced),
// which also proves it ran after the JS half — the JS listener was
// registered first and the dispatch is serialised (§6.2).
func (m *Mashup) Search(location string) error {
	box := m.Host.Page.ElementByID("searchbox")
	box.SetAttr(dom.Name("value"), location)
	before := m.weatherText()
	if err := m.Host.Click("searchbutton"); err != nil {
		return err
	}
	if errs := m.Host.WaitIdle(0); len(errs) > 0 {
		return errs[0]
	}
	if m.weatherText() != before {
		m.HandlerOrder = append(m.HandlerOrder, "xquery")
	}
	return nil
}

func (m *Mashup) weatherText() string {
	return m.Host.Page.ElementByID("weather").StringValue()
}

// MapLocation returns the location of the currently displayed map.
func (m *Mashup) MapLocation() string {
	mp := m.Host.Page.ElementByID("map")
	if el := mp.FirstChild(); el != nil {
		return el.AttrValue("location")
	}
	return ""
}

// WeatherText returns the integrated weather line.
func (m *Mashup) WeatherText() string { return m.weatherText() }

// WebcamURLs returns the integrated web-cam list.
func (m *Mashup) WebcamURLs() []string {
	var out []string
	for _, li := range m.Host.Page.ElementByID("webcams").Elements("li") {
		out = append(out, li.StringValue())
	}
	return out
}

// ExpectedWeatherText computes what the page should show for a
// location in the English-language browser.
func ExpectedWeatherText(loc string) string {
	temp, cond := syntheticWeather(loc)
	return fmt.Sprintf("%s at %d degrees", cond, temp)
}

// ExpectedWeatherTextDE computes the German service's line.
func ExpectedWeatherTextDE(loc string) string {
	temp, cond := syntheticWeather(loc)
	return fmt.Sprintf("%s bei %d Grad", germanCondition[cond], temp)
}

// Close releases the services.
func (m *Mashup) Close() { m.Services.Close() }
