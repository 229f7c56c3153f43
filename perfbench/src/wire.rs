//! A blocking one-request-at-a-time client over `bda_net::proto` and
//! `frame`, timing the client-side codec (the `net` layer) apart from
//! the round trip.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bda_net::frame::{read_message, write_message};
use bda_net::proto::{decode_response, encode_request, Request, Response};

use crate::Failure;

/// Client-side timings of one call, in nanoseconds from `start`, and
/// its frame sizes.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: Instant,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub total_ns: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, Failure> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    pub fn call(&mut self, req: &Request) -> Result<(Response, Call), Failure> {
        let t0 = Instant::now();
        let (kind, payload) = encode_request(req);
        self.buf.clear();
        let request_bytes = write_message(&mut self.buf, kind, &payload)?;
        let t1 = Instant::now();
        self.stream.write_all(&self.buf)?;
        let (kind, payload, response_bytes) = read_message(&mut self.stream)
            .map_err(|e| Failure(format!("reading a response: {e}")))?;
        let t2 = Instant::now();
        let resp = decode_response(kind, &payload)
            .map_err(|e| Failure(format!("undecodable response: {e}")))?;
        let t3 = Instant::now();
        let ns = |d: Duration| d.as_nanos() as u64;
        Ok((
            resp,
            Call {
                start: t0,
                encode_ns: ns(t1 - t0),
                decode_ns: ns(t3 - t2),
                total_ns: ns(t3 - t0),
                request_bytes,
                response_bytes,
            },
        ))
    }
}

/// Classify an error reply. A transient one (an admission shed) is a
/// failed request, which the run counts; any other means the program
/// refused or lost what it should have served, and fails the run.
pub fn shed_or_fail(what: &str, msg: &str, transient: bool) -> Result<(), Failure> {
    if transient {
        Ok(())
    } else {
        Err(Failure(format!("{what} answered an error: {msg}")))
    }
}

/// Median round trip of `n` `Hello` requests on one connection, in µs.
pub fn hello_rtt_us(addr: SocketAddr, n: usize) -> Result<f64, Failure> {
    let mut c = Client::connect(addr)?;
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let (resp, call) = c.call(&Request::Hello)?;
        if !matches!(resp, Response::Hello { .. }) {
            return Err(Failure(format!("Hello answered with {resp:?}")));
        }
        rtts.push(call.total_ns as f64 / 1e3);
    }
    Ok(crate::stats::median(&rtts))
}

/// Sum of every series of a counter family in a hub's exposition (the
/// reactor labels its shed counters by class and reason).
pub fn counter_total(hub: &bda_obs::MetricsHub, family: &str) -> f64 {
    hub.render()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}
