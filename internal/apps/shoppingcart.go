package apps

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/jsruntime"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xmldb"
	"repro/internal/xquery"
)

// The shopping cart of §6.3: the same application twice. The XQuery-only
// variant is one language on every tier — an XQuery program on the
// server renders the page from the products database and the embedded
// XQuery handles the clicks. The baseline is the paper's "technology
// jungle": JSP-style server templating (Java + SQL) plus client-side
// JavaScript with embedded XPath.

// ProductsXML is the products database document.
const ProductsXML = `<products>
  <product><name>Keyboard</name><price>49</price></product>
  <product><name>Mouse</name><price>19</price></product>
  <product><name>Screen</name><price>199</price></product>
  <product><name>Computer</name><price>999</price></product>
</products>`

// NewProductStore builds the products database.
func NewProductStore() (*xmldb.Store, error) {
	s, err := xmldb.Open("")
	if err != nil {
		return nil, err
	}
	if err := s.PutXML("products.xml", ProductsXML); err != nil {
		return nil, err
	}
	return s, nil
}

// ShoppingCartXQueryServer is the entire XQuery-only application — the
// paper's §6.3 listing: the page, the database access (doc()) and the
// client-side event code in a single language. The CDATA section keeps
// the client script from being evaluated on the server.
const ShoppingCartXQueryServer = `
<html><head><script type="text/xqueryp"><![CDATA[
declare updating function local:buy($evt, $obj) {
  insert node <p>{string($obj/@id)}</p> as first
  into //div[@id="shoppingcart"]
};
on event "click" at //input[@type="button"]
attach listener local:buy
]]></script></head><body>
<div>Shopping cart</div>
<div id="shoppingcart"/>
<div id="products">{
  for $p in doc("products.xml")//product
  return <div>{string($p/name)}
    <input type="button" value="Buy" id="{$p/name}"/>
  </div>
}</div>
</body></html>`

// ShoppingCartJSPSource is the JSP/JavaScript/SQL stack as source text
// (the paper's first §6.3 listing, completed into a runnable-looking
// page). It is counted for E4; the executable equivalent is
// RunShoppingCartBaseline.
const ShoppingCartJSPSource = `
<html><head><script type='text/javascript'>
function buy(e) {
    newElement = document.createElement("p");
    elementText = document.createTextNode(e.target.getAttribute("id"));
    newElement.appendChild(elementText);
    var res = document.evaluate(
        "//div[@id='shoppingcart']", document, null,
        XPathResult.UNORDERED_NODE_SNAPSHOT_TYPE, null);
    res.snapshotItem(0).insertBefore(newElement,
        res.snapshotItem(0).firstChild);
}
</script></head><body>
<div>Shopping cart</div>
<div id="shoppingcart"></div>
<%
    Connection conn = DriverManager.getConnection(DB_URL, USER, PASS);
    Statement statement = conn.createStatement();
    ResultSet results =
        statement.executeQuery("SELECT * FROM PRODUCTS");
    while (results.next()) {
        out.println("<div>");
        String prodName = results.getString(1);
        out.println(prodName);
        out.println("<input type='button' value='Buy'");
        out.println("id='" + prodName + "'");
        out.println("onclick='buy(event)'/></div>");
    }
    results.close();
    statement.close();
    conn.close();
%>
</body></html>`

// RenderShoppingCartXQuery runs the server half of the XQuery-only
// application: the page constructor evaluates against the products
// database and the result is serialized for the browser.
func RenderShoppingCartXQuery(store *xmldb.Store) (string, error) {
	e := xquery.New()
	prog, err := e.Compile(ShoppingCartXQueryServer)
	if err != nil {
		return "", err
	}
	res, err := prog.Run(xquery.RunConfig{Docs: store.Resolver()})
	if err != nil {
		return "", err
	}
	page, err := res.Value.One()
	if err != nil {
		return "", err
	}
	n, ok := xdm.IsNode(page)
	if !ok {
		return "", fmt.Errorf("apps: server program did not return a page node")
	}
	return markup.SerializeHTML(n), nil
}

// RunShoppingCartXQuery renders the page server-side, loads it in the
// plug-in host and clicks Buy for each named product. It returns the
// cart contents in order.
func RunShoppingCartXQuery(store *xmldb.Store, buys []string) ([]string, *core.Host, error) {
	pageSrc, err := RenderShoppingCartXQuery(store)
	if err != nil {
		return nil, nil, err
	}
	h, err := core.LoadPage(pageSrc, "http://shop.example.com/cart")
	if err != nil {
		return nil, nil, err
	}
	for _, name := range buys {
		if err := h.Click(name); err != nil {
			return nil, nil, err
		}
	}
	return cartContents(h.Page), h, nil
}

// RunShoppingCartBaseline is the executable JSP+JS stack: Go string
// templating plays the JSP/SQL server half, the jsruntime baseline
// plays the client half.
func RunShoppingCartBaseline(store *xmldb.Store, buys []string) ([]string, error) {
	// "Server": SELECT * FROM PRODUCTS, print HTML.
	products, ok := store.Get("products.xml")
	if !ok {
		return nil, fmt.Errorf("apps: products.xml missing")
	}
	var b strings.Builder
	b.WriteString(`<html><body><div>Shopping cart</div><div id="shoppingcart"></div>`)
	for _, p := range products.Elements("product") {
		name := p.Elements("name")[0].StringValue()
		fmt.Fprintf(&b, `<div>%s<input type='button' value='Buy' id='%s'/></div>`, name, name)
	}
	b.WriteString(`</body></html>`)

	// "Client": the buy(e) handler of the paper's listing.
	page, err := markup.ParseHTML(b.String())
	if err != nil {
		return nil, err
	}
	d := jsruntime.NewDocument(page)
	buy := func(e *dom.Event) {
		newElement := d.CreateElement("p")
		elementText := d.CreateTextNode(e.Target.AttrValue("id"))
		newElement.AppendChild(elementText)
		res, err := d.Evaluate(`//div[@id='shoppingcart']`)
		if err != nil || res.SnapshotLength() == 0 {
			return
		}
		cart := res.SnapshotItem(0)
		cart.InsertBefore(newElement, cart.FirstChild())
	}
	for _, btn := range page.Elements("input") {
		if btn.AttrValue("type") == "button" {
			n := btn
			(&jsWrap{d, n}).addEventListener("click", buy)
		}
	}
	for _, name := range buys {
		el := page.ElementByID(name)
		if el == nil {
			return nil, fmt.Errorf("apps: no product %q", name)
		}
		el.DispatchEvent(&dom.Event{Type: "click", Bubbles: true, Button: 1})
	}
	return cartContents(page), nil
}

type jsWrap struct {
	d *jsruntime.Document
	n *dom.Node
}

func (w *jsWrap) addEventListener(typ string, fn func(*dom.Event)) {
	w.n.AddEventListener(typ, false, nil, fn)
}

// cartContents lists the cart entries top to bottom.
func cartContents(page *dom.Node) []string {
	cart := page.ElementByID("shoppingcart")
	if cart == nil {
		return nil
	}
	var out []string
	for _, p := range cart.Children() {
		if p.Type == dom.ElementNode && p.Name.Local == "p" {
			out = append(out, p.StringValue())
		}
	}
	return out
}
