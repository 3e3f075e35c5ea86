//! Request bytes from the network never panic the HTTP parser, and a
//! malformed request is never routed.
//!
//! * Arbitrary bytes, strings of HTTP tokens, and every one-byte mutation
//!   of real requests make [`read_request`] return `Ok` or `Err`, never
//!   panic; every `Ok` request re-encodes and re-parses to itself.
//! * A malformed or oversized `Content-Length`, an over-long line, too
//!   many headers and a truncated body are errors, not requests with an
//!   empty or partial body.

use fsp_serve::http::{MAX_BODY, MAX_HEADERS, MAX_LINE};
use fsp_serve::{read_request, Request, RequestError};
use proptest::prelude::*;

fn parse(bytes: &[u8]) -> Result<Request, RequestError> {
    read_request(&mut &bytes[..])
}

fn encode(req: &Request) -> Vec<u8> {
    format!(
        "{} {} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        req.method,
        req.target,
        req.body.len(),
        req.body
    )
    .into_bytes()
}

/// An accepted request carries a body within the limit and survives a
/// round trip through its own encoding.
fn check_accepted(bytes: &[u8]) {
    if let Ok(req) = parse(bytes) {
        assert!(req.body.len() <= MAX_BODY);
        let again = parse(&encode(&req)).expect("re-encoded request parses");
        assert_eq!(again, req, "{:?}", String::from_utf8_lossy(bytes));
    }
}

/// Requests as the client, the fleet worker and `curl` send them.
fn real_requests() -> Vec<Vec<u8>> {
    let job = r#"{"kernel":"gemm","mode":"sampled","n":200,"seed":7}"#;
    let lease = r#"{"worker":"w-1","wait_ms":250}"#;
    [
        format!(
            "POST /jobs HTTP/1.1\r\nHost: 127.0.0.1:7071\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{job}",
            job.len()
        ),
        format!(
            "POST /leases HTTP/1.1\r\nHost: 127.0.0.1:7071\r\nContent-Length: {}\r\n\r\n{lease}",
            lease.len()
        ),
        "GET /jobs/job-3/progress?wait_ms=50 HTTP/1.1\r\nHost: localhost\r\n\
         Connection: close\r\n\r\n"
            .to_owned(),
        "GET /metrics HTTP/1.1\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n".to_owned(),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

#[test]
fn real_requests_parse() {
    let reqs: Vec<Request> = real_requests()
        .iter()
        .map(|r| parse(r).expect("a real request parses"))
        .collect();
    assert_eq!(reqs[0].method, "POST");
    assert_eq!(reqs[0].target, "/jobs");
    assert!(reqs[0].body.starts_with("{\"kernel\""));
    assert_eq!(reqs[2].target, "/jobs/job-3/progress?wait_ms=50");
    assert_eq!(reqs[3].body, "");
    // Bare `\n` line ends are accepted too.
    let bare = parse(b"GET /fleet HTTP/1.1\nHost: x\n\n").expect("parses");
    assert_eq!(bare.target, "/fleet");
}

#[test]
fn every_one_byte_mutation_of_a_real_request_parses_or_errs() {
    for request in real_requests() {
        for pos in 0..request.len() {
            for byte in 0..=255u8 {
                let mut mutated = request.clone();
                mutated[pos] = byte;
                check_accepted(&mutated);
            }
        }
        // And every truncation.
        for len in 0..request.len() {
            check_accepted(&request[..len]);
        }
    }
}

#[test]
fn malformed_content_length_is_an_error() {
    for value in ["12x", "-1", "", "1 2", "0x10", "+5", "1e3", "١٢"] {
        let req = format!("POST /jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}");
        assert!(
            matches!(parse(req.as_bytes()), Err(RequestError::ContentLength)),
            "Content-Length {value:?} was accepted"
        );
    }
    let twice = "POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}}";
    assert!(matches!(
        parse(twice.as_bytes()),
        Err(RequestError::ContentLength)
    ));
    let same = "POST /jobs HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}";
    assert_eq!(parse(same.as_bytes()).expect("agreeing lengths").body, "{}");
}

#[test]
fn oversized_body_is_an_error_not_an_empty_body() {
    for n in [MAX_BODY + 1, usize::MAX] {
        let req = format!("POST /jobs HTTP/1.1\r\nContent-Length: {n}\r\n\r\n{{}}");
        assert!(
            matches!(parse(req.as_bytes()), Err(RequestError::BodyTooLarge(_))),
            "Content-Length {n} was accepted"
        );
    }
    let huge = "POST /jobs HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
    assert!(matches!(
        parse(huge.as_bytes()),
        Err(RequestError::BodyTooLarge(_))
    ));
    let body = "x".repeat(MAX_BODY);
    let req = format!("POST /jobs HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n{body}");
    assert_eq!(
        parse(req.as_bytes()).expect("at the limit").body.len(),
        MAX_BODY
    );
}

#[test]
fn lines_and_headers_are_capped() {
    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
    assert!(matches!(
        parse(long_target.as_bytes()),
        Err(RequestError::LineTooLong)
    ));
    let long_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(MAX_LINE));
    assert!(matches!(
        parse(long_header.as_bytes()),
        Err(RequestError::LineTooLong)
    ));
    // A line without an end never stops being read otherwise.
    let endless = vec![b'c'; 4 * MAX_LINE];
    assert!(matches!(parse(&endless), Err(RequestError::LineTooLong)));
    let fits = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE - 20));
    assert!(parse(fits.as_bytes()).is_ok());
    let many = format!(
        "GET / HTTP/1.1\r\n{}\r\n",
        "X-A: 1\r\n".repeat(MAX_HEADERS + 1)
    );
    assert!(matches!(
        parse(many.as_bytes()),
        Err(RequestError::TooManyHeaders)
    ));
}

#[test]
fn truncated_and_malformed_requests_are_errors() {
    assert!(matches!(parse(b""), Err(RequestError::Closed)));
    let cases: [&[u8]; 8] = [
        b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
        b"GET /jobs HTTP/1.1\r\nHost: x\r\n",
        b"GET /jobs HTTP/1.1",
        b"GET /jobs\r\n\r\n",
        b"get /jobs HTTP/1.1\r\n\r\n",
        b"GET  /jobs HTTP/1.1\r\n\r\n",
        b"GET /jobs HTTP/1.1\r\nno colon here\r\n\r\n",
        b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
    ];
    for case in cases {
        let result = parse(case);
        assert!(
            result.is_err() && !matches!(result, Err(RequestError::Closed)),
            "{:?} gave {result:?}",
            String::from_utf8_lossy(case)
        );
    }
}

/// HTTP fragments the token strategy strings together.
const TOKENS: &[&str] = &[
    "GET",
    "POST",
    "PUT",
    " ",
    "/",
    "/jobs",
    "?wait_ms=",
    "HTTP/1.1",
    "\r\n",
    "\n",
    "\r",
    ":",
    "Content-Length",
    "content-length",
    "Host",
    " 0",
    "2",
    "99999999999",
    "{}",
    "é",
    "\t",
];

proptest! {
    #[test]
    fn arbitrary_bytes_parse_or_err(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        check_accepted(&bytes);
    }

    #[test]
    fn token_strings_parse_or_err(codes in prop::collection::vec(any::<u32>(), 0..40)) {
        let text: String = codes.iter().map(|&c| TOKENS[c as usize % TOKENS.len()]).collect();
        check_accepted(text.as_bytes());
    }
}
