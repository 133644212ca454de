// mqsp_serve — resident preparation/verification daemon.
//
// Speaks the line-oriented mqsp_serve protocol (serve/protocol.hpp) over
// stdio (default) or a local TCP socket, multiplexing every client onto
// one shared VerificationService — one DdBackend, one hot DdSession,
// session GC on demand:
//
//   mqsp_serve                          # stdio: one command per line
//   mqsp_serve --port 7878              # TCP on 127.0.0.1:7878
//   mqsp_serve --port 0                 # TCP on an ephemeral port (printed)
//   echo 'PREP:GHZ --dims 3,6,2
//   VERIFY
//   GC
//   STATS?' | mqsp_serve
//
// Streaming/incremental verbs (see docs/USER_GUIDE.md): STREAM opens a
// resident gate-by-gate session (--checkpoint k reports a norm² probe
// every k gates), APPEND feeds it one MQSP-QASM statement per command
// (--gate captures the rest of the line), and on PREP'd targets
// APPEND grows the circuit while REVERIFY re-verifies just the appended
// delta, reporting the structural root diff and the session-cache hits
// the unchanged subtrees resolved from:
//
//   echo 'STREAM --dims 3,6,2 --checkpoint 2
//   APPEND --gate h q[0];
//   APPEND --gate x q[1] (+1) ctl q[0]=1;
//   REVERIFY' | mqsp_serve
//
// Flags:
//   --port <n>            listen on 127.0.0.1:<n> instead of stdio (0 =
//                         ephemeral; the chosen port prints to stderr as
//                         "listening on 127.0.0.1:<port>")
//   --max-amplitudes <n>  per-PREP register ceiling (admission limit)
//   --max-nodes <n>       session node budget gating new PREPs
//   --gc-watermark <n>    automatic-GC trigger in session nodes (default
//                         0 = 80% of --max-nodes); crossing it runs the
//                         mark-and-compact without an explicit GC verb
//   --max-line <n>        longest accepted command line, bytes
//   --max-requests <n>    exit after n connections (TCP test hook; 0 = run
//                         until terminated)
//   --threads <n>         worker threads; BATCH spreads its items across
//                         them. PREP and VERIFY do their diagram work on
//                         one thread (PREP's dense amplitude vectors use
//                         the pool). Replies are identical at any width
//
// Every command yields exactly one "OK ..." / "ERR ..." line; errors leave
// the daemon serving (see docs/USER_GUIDE.md "mqsp_serve").

#include "cli_args.hpp"

#include "mqsp/serve/service.hpp"
#include "mqsp/support/version.hpp"

#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define MQSP_SERVE_HAS_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define MQSP_SERVE_HAS_SOCKETS 0
#endif

namespace {

using namespace mqsp;

/// Run one stdio session: read a command per line, write a reply per line.
int serveStdio(serve::VerificationService& service) {
    std::string line;
    while (std::getline(std::cin, line)) {
        const serve::Response response = service.handleLine(line);
        if (!response.line.empty()) {
            std::cout << response.line << '\n' << std::flush;
        }
        if (response.closeConnection) {
            break;
        }
    }
    return 0;
}

#if MQSP_SERVE_HAS_SOCKETS

/// Serve one TCP client: split the byte stream on '\n', guard each line's
/// length *while buffering* (an attacker streaming one endless line gets an
/// ERR and a resynchronization to the next newline, not unbounded memory),
/// and write one reply line per command.
void serveClient(serve::VerificationService& service, int fd) {
    const std::size_t maxLine = service.limits().maxLineLength;
    std::string buffer;
    bool discarding = false; // inside an oversized line, waiting for '\n'
    char chunk[4096];
    const auto send = [fd](const std::string& text) {
        std::size_t sent = 0;
        while (sent < text.size()) {
            const ssize_t n = ::write(fd, text.data() + sent, text.size() - sent);
            if (n <= 0) {
                return false;
            }
            sent += static_cast<std::size_t>(n);
        }
        return true;
    };
    for (;;) {
        const ssize_t got = ::read(fd, chunk, sizeof(chunk));
        if (got <= 0) {
            break;
        }
        for (ssize_t i = 0; i < got; ++i) {
            const char ch = chunk[i];
            if (ch == '\n') {
                if (discarding) {
                    discarding = false;
                    buffer.clear();
                    if (!send("ERR line too long (over " + std::to_string(maxLine) +
                              " bytes)\n")) {
                        ::close(fd);
                        return;
                    }
                    continue;
                }
                const serve::Response response = service.handleLine(buffer);
                buffer.clear();
                if (!response.line.empty() && !send(response.line + "\n")) {
                    ::close(fd);
                    return;
                }
                if (response.closeConnection) {
                    ::close(fd);
                    return;
                }
            } else if (!discarding) {
                buffer.push_back(ch);
                if (buffer.size() > maxLine) {
                    discarding = true;
                    buffer.clear();
                }
            }
        }
    }
    ::close(fd);
}

int serveTcp(serve::VerificationService& service, std::uint16_t port,
             std::uint64_t maxRequests) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) {
        std::perror("mqsp_serve: socket");
        return 1;
    }
    const int reuse = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::bind(listener, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
        std::perror("mqsp_serve: bind");
        ::close(listener);
        return 1;
    }
    socklen_t addressLength = sizeof(address);
    ::getsockname(listener, reinterpret_cast<sockaddr*>(&address), &addressLength);
    if (::listen(listener, 16) != 0) {
        std::perror("mqsp_serve: listen");
        ::close(listener);
        return 1;
    }
    std::fprintf(stderr, "listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(ntohs(address.sin_port)));

    std::vector<std::thread> clients;
    std::uint64_t accepted = 0;
    while (maxRequests == 0 || accepted < maxRequests) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            break;
        }
        ++accepted;
        clients.emplace_back([&service, fd] { serveClient(service, fd); });
    }
    ::close(listener);
    for (std::thread& client : clients) {
        client.join();
    }
    return 0;
}

#endif // MQSP_SERVE_HAS_SOCKETS

} // namespace

int main(int argc, char** argv) {
    try {
        const unsigned threads = cli::configureThreads(argc, argv);

        serve::ServiceLimits limits;
        limits.maxAmplitudes =
            cli::argUint(argc, argv, "--max-amplitudes", limits.maxAmplitudes);
        limits.maxSessionNodes = cli::argUint(argc, argv, "--max-nodes", limits.maxSessionNodes);
        limits.maxLineLength = cli::argUint(argc, argv, "--max-line", limits.maxLineLength);
        limits.gcWatermarkNodes =
            cli::argUint(argc, argv, "--gc-watermark", limits.gcWatermarkNodes);

        serve::VerificationService service(limits, parallel::ExecutionConfig{threads});

        const auto port = cli::argValue(argc, argv, "--port");
        if (!port) {
            std::fprintf(stderr, "mqsp_serve %s ready (stdio); HELP lists commands\n",
                         versionString());
            return serveStdio(service);
        }
#if MQSP_SERVE_HAS_SOCKETS
        const std::uint64_t portNumber = cli::argUint(argc, argv, "--port", 0);
        requireThat(portNumber <= 65535, "--port expects a value in [0, 65535]");
        const std::uint64_t maxRequests = cli::argUint(argc, argv, "--max-requests", 0);
        return serveTcp(service, static_cast<std::uint16_t>(portNumber), maxRequests);
#else
        std::fprintf(stderr, "mqsp_serve: --port is unsupported on this platform; use stdio\n");
        return 2;
#endif
    } catch (const std::exception& error) {
        std::fprintf(stderr, "mqsp_serve: %s\n", error.what());
        return 1;
    }
}
