package xmldb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/markup"
)

// Handler exposes the store over HTTP — the REST face the paper's §6.1
// architecture talks to:
//
//	GET    /doc?uri=U        — the whole document (cache-friendly, §6.1)
//	GET    /query?uri=U&q=Q  — evaluate Q against U and return the result
//	PUT    /doc?uri=U        — store the request body as a document
//	GET    /list             — the stored URIs
//	GET    /collections      — the collection hierarchy
//	POST   /collection?path=P — create a collection
//	DELETE /collection?path=P — remove a collection subtree
//	GET    /stats            — the store counters, as JSON
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /doc", func(w http.ResponseWriter, r *http.Request) {
		uri := r.URL.Query().Get("uri")
		doc, ok := s.Get(uri)
		if !ok {
			s.count(0, false)
			http.Error(w, fmt.Sprintf("no document %q", uri), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		n, _ := markup.Write(w, doc, markup.XML)
		s.count(int(n), true)
	})
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		uri := r.URL.Query().Get("uri")
		q := r.URL.Query().Get("q")
		out, err := s.Query(uri, q)
		if err != nil {
			s.count(0, false)
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		n, _ := io.WriteString(w, "<result>"+out+"</result>")
		s.count(n, false) // Query already counted the evaluation
	})
	mux.HandleFunc("PUT /doc", func(w http.ResponseWriter, r *http.Request) {
		uri := r.URL.Query().Get("uri")
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.PutXML(uri, string(body)); err != nil {
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		s.count(0, false)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /list", func(w http.ResponseWriter, r *http.Request) {
		var out string
		out += "<uris>"
		for _, u := range s.List() {
			out += "<uri>" + markup.EscapeText(u) + "</uri>"
		}
		out += "</uris>"
		w.Header().Set("Content-Type", "application/xml")
		n, _ := io.WriteString(w, out)
		s.count(n, false)
	})
	mux.HandleFunc("GET /collections", func(w http.ResponseWriter, r *http.Request) {
		var out string
		out += "<collections>"
		for _, c := range s.Collections() {
			out += "<collection>" + markup.EscapeText(c) + "</collection>"
		}
		out += "</collections>"
		w.Header().Set("Content-Type", "application/xml")
		n, _ := io.WriteString(w, out)
		s.count(n, false)
	})
	mux.HandleFunc("POST /collection", func(w http.ResponseWriter, r *http.Request) {
		if err := s.CreateCollection(r.URL.Query().Get("path")); err != nil {
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		s.count(0, false)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /collection", func(w http.ResponseWriter, r *http.Request) {
		if err := s.RemoveCollection(r.URL.Query().Get("path")); err != nil {
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		s.count(0, false)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(s.Stats.Snapshot())
		n, _ := w.Write(b)
		s.count(n, false)
	})
	return mux
}

// httpStatus maps the store's sentinel errors to status codes.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrDocNotFound), errors.Is(err, ErrNoCollection):
		return http.StatusNotFound
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrStoreClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// count tallies one served request.
func (s *Store) count(bytes int, doc bool) {
	s.Stats.requests.Add(1)
	s.Stats.bytesServed.Add(int64(bytes))
	if doc {
		s.Stats.docsServed.Add(1)
	}
}
