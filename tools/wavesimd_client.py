#!/usr/bin/env python3
"""Minimal wavesim.job.v1 client for wavesimd (docs/SERVICE.md).

One request per connection, line-delimited JSON over an AF_UNIX socket:

  wavesimd_client.py --socket S submit --kind run --spec '{"topo":"8x8"}'
  wavesimd_client.py --socket S status --id job-1
  wavesimd_client.py --socket S wait --id job-1 --timeout 120
  wavesimd_client.py --socket S result --id job-1
  wavesimd_client.py --socket S stats
  wavesimd_client.py --socket S shutdown

Prints the response JSON on stdout. Exit 0 when the daemon answered
ok:true, 1 when it answered ok:false, 2 on usage/transport errors.
"""

import argparse
import json
import socket
import sys
import time


def request(sock_path, payload, timeout=30.0):
    """Send one request line; return the parsed response object."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(sock_path)
        sock.sendall((json.dumps(payload) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    if not buf:
        raise ConnectionError("empty response from daemon")
    return json.loads(buf.decode())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True, help="daemon AF_UNIX socket")
    parser.add_argument("op", choices=[
        "submit", "status", "result", "cancel", "stats", "shutdown", "wait"])
    parser.add_argument("--kind", choices=["run", "sweep", "simcheck"],
                        help="job kind (submit)")
    parser.add_argument("--spec", help="job spec as inline JSON (submit)")
    parser.add_argument("--spec-file", help="job spec from a file (submit)")
    parser.add_argument("--tenant", help="tenant name (submit)")
    parser.add_argument("--weight", type=float, help="WFQ weight (submit)")
    parser.add_argument("--id", help="job id (status/result/cancel/wait)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="deadline in seconds for wait (default 120)")
    args = parser.parse_args()

    if args.op == "wait":
        # Poll status until the job reaches a terminal state.
        if not args.id:
            parser.error("wait requires --id")
        deadline = time.monotonic() + args.timeout
        while True:
            response = request(args.socket, {"op": "status", "id": args.id})
            if not response.get("ok"):
                break
            if response.get("state") in ("done", "failed", "cancelled"):
                break
            if time.monotonic() >= deadline:
                response = {"ok": False, "error": "wait timed out",
                            "last": response}
                break
            time.sleep(0.2)
    else:
        payload = {"op": args.op}
        if args.op == "submit":
            if not args.kind or not (args.spec or args.spec_file):
                parser.error("submit requires --kind and --spec/--spec-file")
            if args.spec_file:
                with open(args.spec_file, encoding="utf-8") as handle:
                    payload["spec"] = json.load(handle)
            else:
                payload["spec"] = json.loads(args.spec)
            payload["kind"] = args.kind
            if args.tenant:
                payload["tenant"] = args.tenant
            if args.weight is not None:
                payload["weight"] = args.weight
        elif args.op in ("status", "result", "cancel"):
            if not args.id:
                parser.error(f"{args.op} requires --id")
            payload["id"] = args.id
        response = request(args.socket, payload)

    json.dump(response, sys.stdout, indent=2)
    print()
    return 0 if response.get("ok") else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, ConnectionError) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
