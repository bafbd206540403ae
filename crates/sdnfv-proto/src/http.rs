//! Minimal HTTP/1.x parsing used by application-aware network functions.
//!
//! The paper's Video Detector inspects HTTP response headers to discover the
//! content type of a flow, and the IDS looks for suspicious substrings in
//! HTTP requests. Only the small subset of HTTP needed for that is
//! implemented: request lines, status lines and header fields.

use crate::error::ProtoError;
use crate::Result;

/// An HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// PUT
    Put,
    /// DELETE
    Delete,
    /// HEAD
    Head,
}

impl Method {
    fn from_token(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }

    /// The token used on the request line.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }
}

/// A parsed HTTP request head (request line plus headers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Request target (path and query).
    pub path: String,
    /// Header fields in order of appearance, names lower-cased.
    pub headers: Vec<(String, String)>,
}

/// A parsed HTTP response head (status line plus headers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Numeric status code.
    pub status: u16,
    /// Header fields in order of appearance, names lower-cased.
    pub headers: Vec<(String, String)>,
}

fn parse_headers(lines: &mut std::str::Lines<'_>) -> Vec<(String, String)> {
    let mut headers = Vec::new();
    for line in lines {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    headers
}

impl HttpRequest {
    /// Parses a request head from the start of a TCP payload.
    pub fn parse(payload: &[u8]) -> Result<HttpRequest> {
        let text = std::str::from_utf8(payload).map_err(|_| ProtoError::Malformed {
            layer: "http",
            reason: "payload is not valid UTF-8".to_string(),
        })?;
        let mut lines = text.lines();
        let request_line = lines.next().ok_or_else(|| ProtoError::Malformed {
            layer: "http",
            reason: "empty payload".to_string(),
        })?;
        let mut parts = request_line.trim_end_matches('\r').split_whitespace();
        let method =
            parts
                .next()
                .and_then(Method::from_token)
                .ok_or_else(|| ProtoError::Malformed {
                    layer: "http",
                    reason: "unknown method".to_string(),
                })?;
        let path = parts
            .next()
            .ok_or_else(|| ProtoError::Malformed {
                layer: "http",
                reason: "missing request target".to_string(),
            })?
            .to_string();
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/") {
            return Err(ProtoError::Malformed {
                layer: "http",
                reason: "missing HTTP version".to_string(),
            });
        }
        Ok(HttpRequest {
            method,
            path,
            headers: parse_headers(&mut lines),
        })
    }

    /// Looks up a header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the request head back to wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method.as_str(), self.path);
        for (name, value) in &self.headers {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        out.push_str("\r\n");
        out.into_bytes()
    }
}

impl HttpResponse {
    /// Parses a response head from the start of a TCP payload.
    pub fn parse(payload: &[u8]) -> Result<HttpResponse> {
        let text = std::str::from_utf8(payload).map_err(|_| ProtoError::Malformed {
            layer: "http",
            reason: "payload is not valid UTF-8".to_string(),
        })?;
        let mut lines = text.lines();
        let status_line = lines.next().ok_or_else(|| ProtoError::Malformed {
            layer: "http",
            reason: "empty payload".to_string(),
        })?;
        let status_line = status_line.trim_end_matches('\r');
        if !status_line.starts_with("HTTP/") {
            return Err(ProtoError::Malformed {
                layer: "http",
                reason: "missing HTTP version in status line".to_string(),
            });
        }
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| ProtoError::Malformed {
                layer: "http",
                reason: "missing status code".to_string(),
            })?;
        Ok(HttpResponse {
            status,
            headers: parse_headers(&mut lines),
        })
    }

    /// Looks up a header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Returns the `Content-Type` header, if present.
    pub fn content_type(&self) -> Option<&str> {
        self.header("content-type")
    }

    /// Returns `true` if the response carries video content
    /// (`Content-Type: video/*`), the signal used by the Video Detector NF.
    pub fn is_video(&self) -> bool {
        self.content_type()
            .map(|ct| ct.trim_start().starts_with("video/"))
            .unwrap_or(false)
    }

    /// Serializes the response head back to wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} OK\r\n", self.status);
        for (name, value) in &self.headers {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        out.push_str("\r\n");
        out.into_bytes()
    }
}

/// Convenience constructor for an HTTP response head with a content type,
/// used by traffic generators emulating video servers.
pub fn response_with_content_type(status: u16, content_type: &str) -> Vec<u8> {
    HttpResponse {
        status,
        headers: vec![("content-type".to_string(), content_type.to_string())],
    }
    .to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request() {
        let req = HttpRequest::parse(
            b"GET /videos/cat.mp4 HTTP/1.1\r\nHost: example.com\r\nUser-Agent: test\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/videos/cat.mp4");
        assert_eq!(req.header("host"), Some("example.com"));
        assert_eq!(req.header("HOST"), Some("example.com"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn request_roundtrip() {
        let req = HttpRequest {
            method: Method::Post,
            path: "/submit".to_string(),
            headers: vec![("content-length".to_string(), "5".to_string())],
        };
        let parsed = HttpRequest::parse(&req.to_bytes()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn parse_response_and_video_detection() {
        let resp =
            HttpResponse::parse(b"HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\n\r\n").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.is_video());

        let resp =
            HttpResponse::parse(b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n").unwrap();
        assert!(!resp.is_video());

        let resp = HttpResponse::parse(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap();
        assert!(!resp.is_video());
        assert_eq!(resp.status, 204);
    }

    #[test]
    fn response_helper_builds_parsable_head() {
        let bytes = response_with_content_type(200, "video/webm");
        let resp = HttpResponse::parse(&bytes).unwrap();
        assert!(resp.is_video());
    }

    #[test]
    fn rejects_garbage() {
        assert!(HttpRequest::parse(b"\xff\xfe\x00").is_err());
        assert!(HttpRequest::parse(b"").is_err());
        assert!(HttpRequest::parse(b"FETCH / HTTP/1.1\r\n\r\n").is_err());
        assert!(HttpRequest::parse(b"GET\r\n\r\n").is_err());
        assert!(HttpRequest::parse(b"GET /path\r\n\r\n").is_err());
        assert!(HttpResponse::parse(b"NOTHTTP 200\r\n\r\n").is_err());
        assert!(HttpResponse::parse(b"HTTP/1.1 abc\r\n\r\n").is_err());
        assert!(HttpResponse::parse(b"").is_err());
    }

    #[test]
    fn method_tokens() {
        for m in [
            Method::Get,
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Head,
        ] {
            assert_eq!(Method::from_token(m.as_str()), Some(m));
        }
        assert_eq!(Method::from_token("PATCH"), None);
    }
}
