# Standard entry points; `make ci` is the gate run before merging.

GO ?= go

.PHONY: all build bin vet lint test race ci bench

all: build

build:
	$(GO) build ./...

# Install the deployable binaries into bin/ (the cluster trio plus the
# profiling/figure tools).
BINARIES = avis-coord avis-server avis-client avis-edge avis-adapt avis-load avis-mix avis-figures avis-profile tunable-spec

bin:
	$(GO) build -o bin/ $(addprefix ./cmd/,$(BINARIES))

vet:
	$(GO) vet ./...

# gofmt and vet, plus staticcheck when installed; CI always installs it,
# local runs degrade gracefully so the gate never needs network access.
lint: vet
	@echo "== gofmt -l ."; \
	unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "== staticcheck ./..."; \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

ci:
	./scripts/ci.sh

# Quick gate: race suite minus the slow wall-clock tests.
ci-short:
	./scripts/ci.sh -short

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
