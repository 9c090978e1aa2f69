# Tango build/check targets. `make check` is what CI runs
# (.github/workflows/ci.yml); scripts/check.sh is the same sequence for
# environments without make.

GO ?= go

.PHONY: all build vet lint lint-json race test check loc clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# tangolint: the project's own static-analysis suite (internal/lint).
# See docs/lint.md for the analyzers and the //lint:ignore escape hatch.
lint:
	$(GO) run ./cmd/tangolint ./...

# Machine-readable findings (file/line/analyzer/message/witness) for CI
# artifacts; writes tangolint.json and still fails on findings.
lint-json:
	$(GO) run ./cmd/tangolint -json ./... > tangolint.json

race:
	$(GO) test -race ./...

test:
	$(GO) test ./...

check: build vet lint race

# Code-size metric: non-test Go lines and package count (see ROADMAP.md).
loc:
	bash scripts/loc.sh

clean:
	$(GO) clean ./...
