# Developer entry points. CI runs vet+build+test directly.

.PHONY: all build test vet

all: vet build test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...
