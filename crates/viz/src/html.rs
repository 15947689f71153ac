//! Self-contained HTML report assembly.
//!
//! Bundles the hotspot report text, ranked findings, and every chart
//! (inline SVG) into one `report.html` the analyst can open anywhere —
//! the closest single-file equivalent of a Vampir session for sharing.

use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// One section of the report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ReportSection {
    /// A `<h2>` heading.
    Heading(String),
    /// Preformatted text (monospace).
    Text(String),
    /// A list of short lines (e.g. findings).
    List(Vec<String>),
    /// An inline SVG document.
    Svg(String),
}

/// A report under assembly.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HtmlReport {
    /// Page title.
    pub title: String,
    /// Sections, in order.
    pub sections: Vec<ReportSection>,
}

impl HtmlReport {
    /// Starts a report with a title.
    pub fn new(title: impl Into<String>) -> HtmlReport {
        HtmlReport {
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a heading.
    pub fn heading(&mut self, text: impl Into<String>) -> &mut Self {
        self.sections.push(ReportSection::Heading(text.into()));
        self
    }

    /// Appends preformatted text.
    pub fn text(&mut self, text: impl Into<String>) -> &mut Self {
        self.sections.push(ReportSection::Text(text.into()));
        self
    }

    /// Appends a bullet list.
    pub fn list(&mut self, items: Vec<String>) -> &mut Self {
        self.sections.push(ReportSection::List(items));
        self
    }

    /// Appends an inline SVG chart (as produced by the SVG renderers).
    pub fn svg(&mut self, svg: impl Into<String>) -> &mut Self {
        self.sections.push(ReportSection::Svg(svg.into()));
        self
    }

    /// Writes the final standalone HTML document to `out`, section by
    /// section, so a report written to a file is never held whole.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        write!(
            out,
            "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
             <title>{}</title>\n<style>\n\
             body {{ font-family: Helvetica, Arial, sans-serif; margin: 2rem auto; \
             max-width: 1240px; color: #222; }}\n\
             h1 {{ border-bottom: 2px solid #ddd; padding-bottom: .3rem; }}\n\
             h2 {{ margin-top: 2rem; color: #444; }}\n\
             pre {{ background: #f7f7f4; padding: .8rem; overflow-x: auto; \
             border-radius: 4px; font-size: 13px; }}\n\
             ul {{ line-height: 1.6; }}\n\
             .chart {{ margin: 1rem 0; overflow-x: auto; }}\n\
             </style>\n</head>\n<body>\n<h1>{}</h1>\n",
            escape(&self.title),
            escape(&self.title)
        )?;
        for section in &self.sections {
            match section {
                ReportSection::Heading(h) => writeln!(out, "<h2>{}</h2>", escape(h))?,
                ReportSection::Text(t) => writeln!(out, "<pre>{}</pre>", escape(t))?,
                ReportSection::List(items) => {
                    writeln!(out, "<ul>")?;
                    for item in items {
                        writeln!(out, "<li>{}</li>", escape(item))?;
                    }
                    writeln!(out, "</ul>")?;
                }
                ReportSection::Svg(svg) => {
                    // SVG is trusted output of our own renderers; embed as-is.
                    writeln!(out, "<div class=\"chart\">{svg}</div>")?;
                }
            }
        }
        out.write_all(b"</body>\n</html>\n")
    }

    /// Renders the final standalone HTML document ([`write_to`](Self::write_to)
    /// into a string).
    pub fn render(&self) -> String {
        let mut out = Vec::with_capacity(1 << 16);
        self.write_to(&mut out)
            .expect("writing to memory cannot fail");
        String::from_utf8(out).expect("the document is UTF-8")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_sections_in_order() {
        let mut r = HtmlReport::new("demo");
        r.heading("First")
            .text("line one\nline two")
            .list(vec!["a".into(), "b".into()])
            .svg("<svg></svg>");
        let html = r.render();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h1>demo</h1>"));
        let h = html.find("<h2>First</h2>").unwrap();
        let t = html.find("<pre>line one").unwrap();
        let l = html.find("<li>a</li>").unwrap();
        let s = html.find("<svg></svg>").unwrap();
        assert!(h < t && t < l && l < s);
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn escapes_text_but_not_svg() {
        let mut r = HtmlReport::new("a < b & c");
        r.text("2 < 3").svg("<svg><rect/></svg>");
        let html = r.render();
        assert!(html.contains("a &lt; b &amp; c"));
        assert!(html.contains("2 &lt; 3"));
        assert!(html.contains("<svg><rect/></svg>"));
    }

    #[test]
    fn empty_report_is_valid_shell() {
        let html = HtmlReport::new("empty").render();
        assert!(html.contains("<body>"));
        assert!(html.contains("</body>"));
    }
}
