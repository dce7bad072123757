//! The blocking client: connect, send one JSON line, read one back.
//!
//! [`request`] is the one-shot form the CLI `client` sub-command uses;
//! [`Connection`] keeps the socket open for request streams (the bench
//! harness measures sustained throughput over persistent connections).

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A persistent client connection.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connects with the given I/O timeout.
    ///
    /// # Errors
    ///
    /// Connection or socket-configuration errors.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Connection { reader: BufReader::new(stream) })
    }

    /// Sends one request line and reads the one response line.
    ///
    /// # Errors
    ///
    /// I/O errors, timeouts, or the server closing the connection
    /// (reported as `UnexpectedEof` — e.g. after it finished
    /// draining).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        // Line and newline in one write: a server that answers and
        // closes before reading must not fail a second write with
        // EPIPE before its answer is read.
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line.trim_end());
        msg.push('\n');
        self.reader.get_mut().write_all(msg.as_bytes())?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        Ok(resp.trim_end().to_string())
    }
}

/// One-shot request: connect, exchange one line, disconnect.
///
/// # Errors
///
/// As [`Connection::request`].
pub fn request(addr: &str, line: &str, timeout: Duration) -> io::Result<String> {
    Connection::connect(addr, timeout)?.request(line)
}
